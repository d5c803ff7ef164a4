"""Host speed, measured beside the program so that timings can be scaled
to a nominal host.

The benchmark's host is a small VM on a shared machine. Its speed swings
by up to 2x within seconds to minutes as the machine's other tenants
load and idle, and process CPU time swings with wall time, so neither
clock is steady from one run to the next. Each timed pass therefore
interleaves a fixed reference task between its operations: after every
operation the task runs until its total time reaches :data:`SHARE` of
the operation's (the remainder carries over to the next operation, so
short operations do not each pay for a whole task). The task is pure
Python that does not touch the program, so no change to the program can
move it.

A run of tasks measures the host as :data:`NOMINAL_S` over their mean
time, raised to the workload's sensitivity. An operation's *scale* is
the mean of that measure over the runs of tasks on either side of it
(the nearest ones, when short operations ran back to back). Multiplying
its latency by the scale gives its latency on a host where the task
takes :data:`NOMINAL_S`. On a host in a slow phase the task is slow too,
the scale drops below 1, and the scaled latency stays about where it
was. The host can change phase from one operation to the next, so one
side alone would often measure the wrong phase.

The sensitivity is how much of the task's speed change a workload's
latencies follow. With :data:`SENSITIVITY` (0.8), ten-run sets of
``expjoin`` and ``plan_search`` showed no trend of the scaled figures
with host speed (log-log slopes within +-0.14), but ``adapt``'s scaled
``ops_per_s`` still rose with it (slopes 0.17 and 0.27, correlation
0.85 over two sets), so ``adapt`` uses 1.0.
"""

from __future__ import annotations

import time

#: Reference time per unit of operation time.
SHARE = 0.05
#: Reference time per unit of set-up time, run once the set-up is done.
SETUP_SHARE = 0.15
#: The reference task's time on the host this benchmark was written on,
#: in its usual (slower) phase: a scale of 1.0.
NOMINAL_S = 0.35e-3
#: How much of the task's speed change an operation's latency follows,
#: unless a workload sets its own.
SENSITIVITY = 0.8
#: Tuple keys the reference task inserts; sets its length (~0.2-0.35 ms).
REF_ITEMS = 150


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def reference_task() -> int:
    """Fixed interpreter work of the kind the planner and executor do:
    small objects, short lists and tuple-keyed dict inserts, all garbage
    once it returns."""
    table = {}
    for i in range(REF_ITEMS):
        table[(i, i * 7 % 13)] = [_Cell(i, j) for j in range(3)]
    return sum(len(cells) for cells in table.values())


class HostMeter:
    """Runs the reference task between operations and turns its times
    into scales."""

    def __init__(
        self,
        share: float = SHARE,
        sensitivity: float = SENSITIVITY,
        clock=time.perf_counter,
    ) -> None:
        self.share = share
        self.sensitivity = sensitivity
        self.clock = clock
        self.debt = 0.0
        #: Scale of the latest tasks; ``None`` before any have run.
        self.last: float | None = None

    def after(self, seconds: float) -> float | None:
        """Run the task until ``share`` of ``seconds``, plus what earlier
        calls left owing, has been spent on it. Returns the scale of the
        tasks run, ``None`` when earlier calls had paid ahead."""
        clock = self.clock
        self.debt += self.share * seconds
        if self.debt <= 0.0:
            return None
        spent, runs = 0.0, 0
        while self.debt > 0.0:
            started = clock()
            reference_task()
            took = clock() - started
            spent += took
            runs += 1
            self.debt -= took
        self.last = (NOMINAL_S * runs / spent) ** self.sensitivity
        return self.last


def measure_scale(seconds: float, sensitivity: float = SENSITIVITY) -> float:
    """Run the task for about ``seconds`` and return the scale."""
    return HostMeter(share=1.0, sensitivity=sensitivity).after(seconds) or 1.0


def op_scales(
    before: float | None, runs: list[float], follows: list[int]
) -> list[float]:
    """Each operation's scale. ``runs`` are the scales of the task runs
    of one pass, in order, and ``before`` that of the run just before the
    pass; operation ``i`` is followed by ``runs[follows[i]]`` (past the
    end: by none)."""
    scales = []
    for index in follows:
        sides = [
            scale
            for scale in (
                runs[index - 1] if index > 0 else before,
                runs[index] if index < len(runs) else None,
            )
            if scale is not None
        ]
        scales.append(sum(sides) / len(sides) if sides else 1.0)
    return scales

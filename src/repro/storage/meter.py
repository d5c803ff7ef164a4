"""Charged-cost accounting in the paper's currency.

Section 2 of the paper defines costs in units of random database I/Os: the
function ``costly100`` "takes as much time per invocation as the I/O time
used by a query which touches 100 unclustered tuples". The paper measures
queries by counting function invocations and multiplying by the function's
cost, then adding that to the measured I/O time.

:class:`CostMeter` is the single ledger for all of that: random page reads
(1 unit each), sequential page reads (``seq_weight`` units each, default
0.25 — sequential transfers amortise seeks), and charged function cost. An
optional budget turns runaway plans into :class:`BudgetExceededError`
aborts, reproducing the paper's Query 5 "never completed" footnote without
hanging the harness.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.errors import BudgetExceededError

#: Default relative cost of a sequential page read vs a random one.
DEFAULT_SEQ_WEIGHT = 0.25


class IOKind(enum.Enum):
    """How a page access should be charged."""

    RANDOM = "random"
    SEQUENTIAL = "sequential"


@dataclass
class CostMeter:
    """Ledger of charged execution cost, in random-I/O units."""

    seq_weight: float = DEFAULT_SEQ_WEIGHT
    budget: float | None = None
    random_ios: int = field(default=0, init=False)
    seq_ios: int = field(default=0, init=False)
    function_calls: int = field(default=0, init=False)
    function_charged: float = field(default=0.0, init=False)
    cpu_charged: float = field(default=0.0, init=False)
    #: Charges whose per-call cost was non-finite or negative (a UDF lying
    #: about its catalog cost) and was clamped to 0 instead of poisoning
    #: the ledger — one ``nan`` would otherwise disable budget checks.
    clamped_charges: int = field(default=0, init=False)

    @property
    def io_charged(self) -> float:
        """Charged I/O cost only (no function cost)."""
        return self.random_ios + self.seq_ios * self.seq_weight

    @property
    def charged(self) -> float:
        """Total charged cost: I/O, join CPU, and function invocations."""
        return self.io_charged + self.cpu_charged + self.function_charged

    def charge_io(self, kind: IOKind, pages: int = 1) -> None:
        """Charge ``pages`` page reads of the given kind.

        A multi-page charge that would cross the budget stops at the page
        that crosses it (see :meth:`affordable`) before raising."""
        if pages < 0:
            raise ValueError(f"pages must be non-negative, got {pages}")
        unit = 1.0 if kind is IOKind.RANDOM else self.seq_weight
        while True:
            step = self.affordable(unit, pages)
            if kind is IOKind.RANDOM:
                self.random_ios += step
            else:
                self.seq_ios += step
            self._check_budget()
            pages -= step
            if not pages:
                return

    def charge_function(self, cost_per_call: float, calls: int = 1) -> None:
        """Charge ``calls`` invocations of a function of the given cost.

        Like :meth:`charge_io`, a bulk charge stops at the call that
        crosses the budget; callers that evaluate in bulk ask
        :meth:`affordable` first, so they never run a call they would
        not pay for."""
        if calls < 0:
            raise ValueError(f"calls must be non-negative, got {calls}")
        if not math.isfinite(cost_per_call) or cost_per_call < 0:
            cost_per_call = 0.0
            self.clamped_charges += calls
        while True:
            step = self.affordable(cost_per_call, calls)
            self.function_calls += step
            self.function_charged += cost_per_call * step
            self._check_budget()
            calls -= step
            if not calls:
                return

    def charge_cpu(self, units: float) -> None:
        """Charge per-tuple join processing cost."""
        if units < 0:
            raise ValueError(f"units must be non-negative, got {units}")
        self.cpu_charged += units
        self._check_budget()

    def charge_tuples(self, cpu_per_tuple: float, tuples: int) -> None:
        """Charge per-tuple CPU for ``tuples`` tuples in bulk, stopping at
        the tuple that crosses the budget."""
        while True:
            step = self.affordable(cpu_per_tuple, tuples)
            self.charge_cpu(cpu_per_tuple * step)
            tuples -= step
            if tuples <= 0:
                return

    def affordable(self, unit: float, count: int) -> int:
        """How many of ``count`` equal charges of ``unit`` a bulk charge
        should make: all of them when they fit under the budget, else
        every one up to and including the charge that crosses it.

        This is the budget frontier: a batch of work stops within one
        charge quantum of the budget, the same place a tuple-at-a-time
        run stops, instead of overshooting by a whole batch.
        """
        if self.budget is None or count <= 1 or not unit > 0:
            return count
        room = self.budget - self.charged
        if unit * count <= room:
            return count
        return max(1, min(count, int(room // unit) + 1))

    def _check_budget(self) -> None:
        if self.budget is not None and self.charged > self.budget:
            raise BudgetExceededError(self.charged, self.budget)

    def reset(self) -> None:
        self.random_ios = 0
        self.seq_ios = 0
        self.function_calls = 0
        self.function_charged = 0.0
        self.cpu_charged = 0.0
        self.clamped_charges = 0

    def snapshot(self) -> dict[str, float]:
        """A plain-dict copy of the counters, for reports and tests."""
        return {
            "random_ios": self.random_ios,
            "seq_ios": self.seq_ios,
            "function_calls": self.function_calls,
            "function_charged": self.function_charged,
            "cpu_charged": self.cpu_charged,
            "io_charged": self.io_charged,
            "charged": self.charged,
        }

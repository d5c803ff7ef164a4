"""Per-predicate UDF failure containment for the executor.

A :class:`FailurePolicy` says what to do when a user-defined predicate
raises :class:`~repro.errors.UdfError`: retry up to ``retries`` times
with exponential backoff on a simulated clock, then apply the
on-exhaustion policy —

``abort``
    re-raise; the executor converts it into a structured DNF result
    (``completed=False`` with a populated ``error`` field), never a
    traceback;
``skip-row`` / ``assume-fail``
    treat the predicate as false: the row is dropped and quarantined
    (both names exist because "drop this row" and "the predicate said
    no" are different operator intents with identical conjunct
    semantics);
``assume-pass``
    treat the predicate as true: the row flows on and is quarantined as
    potentially spurious.

Every exhaustion lands in the :class:`QuarantineReport` threaded into
:class:`~repro.exec.runtime.QueryResult`, so a degraded run says exactly
which tuples were decided by policy rather than by evaluation.

The containment layer deliberately ignores the fault's ``transient``
flag when deciding to retry: real systems cannot see fault metadata, so
permanent faults burn the full retry budget before the policy applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExecutionError, UdfError
from repro.faults.clock import SimulatedClock
from repro.obs.events import NO_EVENTS, EventStream
from repro.obs.tracer import NULL_TRACER

#: Valid ``on_exhausted`` policies.
EXHAUSTION_POLICIES = ("abort", "skip-row", "assume-pass", "assume-fail")

#: Default bounded-retry budget.
DEFAULT_RETRIES = 2


@dataclass(frozen=True)
class FailurePolicy:
    """How the executor responds to UDF failures."""

    retries: int = DEFAULT_RETRIES
    on_exhausted: str = "abort"
    backoff_base: float = 1.0
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.on_exhausted not in EXHAUSTION_POLICIES:
            raise ExecutionError(
                f"unknown on-exhaustion policy {self.on_exhausted!r}; "
                f"choose one of {EXHAUSTION_POLICIES}"
            )
        if self.retries < 0:
            raise ExecutionError(
                f"retries must be non-negative, got {self.retries}"
            )

    def backoff_units(self, attempt: int) -> float:
        """Virtual wait before retry number ``attempt`` (0-based)."""
        return self.backoff_base * self.backoff_multiplier**attempt


@dataclass(frozen=True)
class QuarantineEntry:
    """One tuple whose predicate verdict came from policy, not evaluation."""

    predicate: str
    function: str
    action: str
    attempts: int
    call_index: int
    row_preview: str

    def as_dict(self) -> dict:
        return {
            "predicate": self.predicate,
            "function": self.function,
            "action": self.action,
            "attempts": self.attempts,
            "call_index": self.call_index,
            "row_preview": self.row_preview,
        }


@dataclass
class QuarantineReport:
    """The degraded-run ledger: counts plus the affected tuples."""

    entries: list[QuarantineEntry] = field(default_factory=list)
    #: Individual retry attempts (each backoff wait is one retry).
    retries: int = 0
    #: Evaluations that succeeded only after at least one retry.
    recovered: int = 0
    #: UdfErrors observed (including ones later masked by retry).
    failures: int = 0
    backoff_units: float = 0.0

    @property
    def quarantined(self) -> int:
        return len(self.entries)

    def as_dict(self) -> dict:
        return {
            "quarantined": self.quarantined,
            "retries": self.retries,
            "recovered": self.recovered,
            "failures": self.failures,
            "backoff_units": self.backoff_units,
            "entries": [entry.as_dict() for entry in self.entries],
        }


#: Cap on quarantine entries kept verbatim; counts keep accumulating
#: beyond it so reports stay bounded even when every row fails.
MAX_QUARANTINE_ENTRIES = 1000


class ContainmentState:
    """Mutable per-execution containment bookkeeping."""

    def __init__(
        self,
        policy: FailurePolicy,
        clock: SimulatedClock | None = None,
        tracer=None,
        events: EventStream = NO_EVENTS,
    ) -> None:
        self.policy = policy
        self.clock = clock if clock is not None else SimulatedClock()
        self.tracer = NULL_TRACER if tracer is None else tracer
        #: The run's event stream: retries and quarantines go out as
        #: notes, so a flight recorder's crash dump shows the containment
        #: activity leading up to the abort.
        self.events = events
        self.report = QuarantineReport()
        self._overflow = 0

    def note_failure(self) -> None:
        self.report.failures += 1

    def note_recovered(self) -> None:
        self.report.recovered += 1

    def wait_before_retry(self, attempt: int, error: UdfError) -> None:
        """Charge one backoff wait to the simulated clock."""
        units = self.policy.backoff_units(attempt)
        self.report.retries += 1
        self.report.backoff_units += units
        self.clock.charge_backoff(units)
        if self.tracer.enabled:
            self.tracer.event(
                "udf.retry",
                function=error.function,
                attempt=attempt + 1,
                backoff_units=units,
            )
        self.events.note(
            "udf.retry",
            function=error.function,
            attempt=attempt + 1,
            backoff_units=units,
        )

    def quarantine(
        self, predicate, row: tuple, error: UdfError, attempts: int
    ) -> bool:
        """Record an exhausted evaluation; returns the assumed verdict.

        ``abort`` re-raises instead of returning.
        """
        action = self.policy.on_exhausted
        if len(self.report.entries) < MAX_QUARANTINE_ENTRIES:
            self.report.entries.append(
                QuarantineEntry(
                    predicate=str(predicate),
                    function=error.function,
                    action=action,
                    attempts=attempts,
                    call_index=error.call_index,
                    row_preview=repr(row)[:120],
                )
            )
        else:
            self._overflow += 1
        if self.tracer.enabled:
            self.tracer.event(
                "udf.quarantine",
                function=error.function,
                action=action,
                attempts=attempts,
            )
        self.events.note(
            "udf.quarantine",
            function=error.function,
            predicate=str(predicate),
            action=action,
            attempts=attempts,
        )
        if action == "abort":
            raise error
        return action == "assume-pass"

    def metrics(self) -> dict[str, float]:
        """The ``udf.*`` counters merged into ``QueryResult.metrics``."""
        report = self.report
        return {
            "udf.retries": float(report.retries),
            "udf.recovered": float(report.recovered),
            "udf.failures": float(report.failures),
            "udf.quarantined": float(report.quarantined + self._overflow),
            "udf.backoff_units": report.backoff_units,
            "udf.latency_units": self.clock.latency_units,
        }

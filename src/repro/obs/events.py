"""The execution event stream: one vocabulary for everything a run reports.

Every run-time observer — EXPLAIN ANALYZE, the statistics feedback
collector, the live telemetry monitor, the flight recorder and the
adaptive controller — is an :class:`ExecutionListener` on one
:class:`EventStream`. The executor builds the stream from a tuple of
listeners and the engine emits six kinds of events into it:

* **start/end** — :meth:`~ExecutionListener.on_start` before any
  operator is built, :meth:`~ExecutionListener.on_end` with the finished
  :class:`~repro.exec.runtime.QueryResult` (its ``error`` is the abort
  reason, empty for a completed run);
* **operator open** — :meth:`~ExecutionListener.on_open` once per built
  plan node (an index-nested-loop join probes its inner scan directly,
  so that scan never opens);
* **batch out/done** — :meth:`~ExecutionListener.on_batch` per pull of a
  node's output, :meth:`~ExecutionListener.on_done` on exhaustion. Both
  carry the pull's wall seconds and its ``delta``: the ``(io, cpu,
  function)`` charges plus the predicate-cache hits the pull added,
  inclusive of the node's subtree. ``rows`` is ``None`` for a pull that
  returned an adaptive leaf-boundary marker instead of a batch;
* **filter batch** — :meth:`~ExecutionListener.on_filter` per batch
  through a node's filter chain: rows in and out (out is ``None`` when a
  budget or UDF abort cut the batch short), the chain's declared
  selectivity, and one ``(rows_in, rows_out, kernel_seconds,
  cache_hits, cache_misses)`` record per predicate the batch reached;
* **verdicts** — :meth:`~ExecutionListener.on_verdicts`: ``evaluated``
  evaluations of one predicate, ``passed`` of them true, with
  ``charges`` the per-evaluation function cost (empty when every charge
  is zero, e.g. a hash-matched free equijoin). The per-row containment
  path reports each evaluation on its own (``evaluated=1``);
* **note** — :meth:`~ExecutionListener.on_note`: containment retries
  and quarantines, adaptive re-plans.

Listeners hear each event in tuple order. With no listeners the build
adds no observing operator, and predicate evaluation and filtering keep
their unobserved fast paths while no listener acts on verdict or filter
events, so a run pays only for the events someone listens to.
"""

from __future__ import annotations


class ExecutionListener:
    """Base listener: every event is a no-op until overridden."""

    __slots__ = ()

    def on_start(self, root, ctx) -> None:
        """The run is about to build ``root``'s operators under ``ctx``
        (a :class:`~repro.exec.operators.RuntimeContext`)."""

    def on_end(self, result) -> None:
        """The run finished with ``result``; a listener may attach its
        roll-up to it (the telemetry monitor sets ``resources``)."""

    def on_open(self, node) -> None:
        """An operator for plan ``node`` was built."""

    def on_batch(self, key: int, rows, seconds: float, delta) -> None:
        """Node ``key`` (``id(plan_node)``) handed up ``rows`` rows."""

    def on_done(self, key: int, seconds: float, delta) -> None:
        """Node ``key`` is exhausted."""

    def on_filter(
        self, key: int, chain, rows_in: int, rows_out, declared: float,
        kernels,
    ) -> None:
        """One batch went through node ``key``'s filter ``chain``."""

    def on_verdicts(
        self, predicate, evaluated: int, passed: int, charges
    ) -> None:
        """A batch of ``predicate`` evaluations finished."""

    def on_note(self, kind: str, fields: dict) -> None:
        """A milestone outside the batch flow (retry, quarantine,
        re-plan)."""


def _acting_on(listeners: tuple, event: str) -> tuple:
    """The listeners whose ``event`` handler is not the base no-op."""
    base = getattr(ExecutionListener, event)
    return tuple(
        listener
        for listener in listeners
        if getattr(type(listener), event) is not base
    )


class EventStream:
    """Fans each event out to the run's listeners, in order. Falsy when
    nobody listens — the engine then builds no observing operator."""

    __slots__ = ("listeners", "verdict_listeners", "filter_listeners")

    def __init__(self, listeners=()) -> None:
        self.listeners = tuple(listeners)
        #: Predicate evaluation brackets each call's charge — the slow,
        #: exact path — only while some listener acts on verdicts.
        self.verdict_listeners = _acting_on(self.listeners, "on_verdicts")
        #: Filters time their kernels only while some listener acts on
        #: filter events.
        self.filter_listeners = _acting_on(self.listeners, "on_filter")

    def __bool__(self) -> bool:
        return bool(self.listeners)

    def start(self, root, ctx) -> None:
        for listener in self.listeners:
            listener.on_start(root, ctx)

    def end(self, result) -> None:
        for listener in self.listeners:
            listener.on_end(result)

    def open(self, node) -> None:
        for listener in self.listeners:
            listener.on_open(node)

    def batch(self, key: int, rows, seconds: float, delta) -> None:
        for listener in self.listeners:
            listener.on_batch(key, rows, seconds, delta)

    def done(self, key: int, seconds: float, delta) -> None:
        for listener in self.listeners:
            listener.on_done(key, seconds, delta)

    def filter(
        self, key: int, chain, rows_in: int, rows_out, declared: float,
        kernels,
    ) -> None:
        for listener in self.filter_listeners:
            listener.on_filter(
                key, chain, rows_in, rows_out, declared, kernels
            )

    def verdicts(
        self, predicate, evaluated: int, passed: int, charges
    ) -> None:
        for listener in self.verdict_listeners:
            listener.on_verdicts(predicate, evaluated, passed, charges)

    def note(self, kind: str, **fields) -> None:
        for listener in self.listeners:
            listener.on_note(kind, fields)


#: The stream of an unobserved run.
NO_EVENTS = EventStream()

"""Execution flight recorder: the engine's last moments, on disk.

Every observability layer so far either reports after a healthy finish
(artifacts, feedback, resource roll-ups) or streams while someone is
watching (``repro top``). When a query *dies* mid-flight — UDF-DNF under
the ``abort`` policy, budget exhaustion, an injected permanent fault —
all of it evaporates: the structured DNF says *that* the run died, not
what the engine was doing in its final batches.

The :class:`FlightRecorder` is a fixed-capacity ring buffer listening
on the executor's execution event stream (:mod:`repro.obs.events`) —
zero overhead when no listener is attached. It keeps the last events
of the stream in bounded form — one per emitted batch and per
exhausted operator, the containment retry/quarantine and adaptive
re-plan notes, the abort, and progress snapshots of a telemetry
monitor listening on the same run — and old events fall off the front,
so memory stays O(capacity) no matter how long the run.

Determinism is the contract: events are timestamped with the
:class:`~repro.faults.clock.SimulatedClock` (never wall-clock), carry
cumulative charged cost (deterministic for a given seed), and serialise
through the artifact conventions (strict JSON, ``fmt_stat`` floats, no
ids or hashes) — so a ``FLIGHT_<workload>.json`` dump is byte-stable
across ``PYTHONHASHSEED`` and replays identically for a given fault
seed. ``repro postmortem <dump>`` renders the dump as a timeline.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

from repro.errors import ArtifactError
from repro.faults.clock import SimulatedClock
from repro.obs.artifacts import _json_safe
from repro.obs.events import ExecutionListener
from repro.obs.quality import fmt_stat
from repro.obs.runtime_telemetry import RuntimeMonitor
from repro.plan.display import _node_label

#: Dump filename prefix, mirroring ``BENCH_`` / ``CHAOS_`` / ``STATS_``.
FLIGHT_PREFIX = "FLIGHT_"

#: Bumped on incompatible dump-shape changes.
FLIGHT_SCHEMA_VERSION = 1

#: Default ring-buffer capacity: enough to see several batches per
#: operator of a deep plan without unbounded growth.
DEFAULT_CAPACITY = 256

#: Quarantine entries kept verbatim in a dump (counts are complete).
MAX_DUMP_QUARANTINE = 5

#: Provenance events kept in a dump for the dying operator's context.
MAX_DUMP_PROVENANCE = 20


class FlightRecorder(ExecutionListener):
    """Fixed-capacity ring buffer of execution events.

    :meth:`record` is the only hot-path entry point: one dict append per
    event, oldest events dropped once ``capacity`` is reached. A run's
    ``end`` event marks the recorder *tripped* via :meth:`note_abort`
    when the run died; callers check :attr:`tripped` to decide whether
    to serialize a dump.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        clock: SimulatedClock | None = None,
    ) -> None:
        self.capacity = max(1, int(capacity))
        self.clock = clock if clock is not None else SimulatedClock()
        self._events: deque[dict] = deque(maxlen=self.capacity)
        #: Events ever recorded (including ones that fell off the ring).
        self.recorded = 0
        #: Structured abort reason; empty while the run is healthy.
        self.tripped = ""
        self._meter = None
        self._monitor: RuntimeMonitor | None = None
        #: Per open operator: ``[label, batches emitted]``.
        self._operators: dict[int, list] = {}

    def record(self, kind: str, **fields) -> None:
        """Append one event. ``t`` is the simulated clock's reading at
        record time — virtual units, never wall-clock."""
        self.recorded += 1
        event = {"seq": self.recorded, "t": self.clock.now, "kind": kind}
        event.update(fields)
        self._events.append(event)

    def note_abort(self, reason: str) -> None:
        """Mark the run dead. Idempotent — the first reason wins (it is
        the one closest to the fault)."""
        if not self.tripped:
            self.tripped = reason
            self.record("query.abort", reason=reason)

    # -- the event stream ----------------------------------------------------

    def on_start(self, root, ctx) -> None:
        self._meter = ctx.meter
        self._monitor = next(
            (
                listener
                for listener in ctx.events.listeners
                if isinstance(listener, RuntimeMonitor)
            ),
            None,
        )
        self._operators = {}

    def on_end(self, result) -> None:
        if not result.completed:
            self.note_abort(result.error)

    def on_open(self, node) -> None:
        self._operators[id(node)] = [_node_label(node), 0]

    def on_batch(self, key, rows, seconds, delta) -> None:
        if rows is None:
            return
        operator = self._operators[key]
        operator[1] += 1
        label, count = operator
        self.record(
            "batch", op=label, batch=count, rows=rows,
            charged=self._meter.charged,
        )
        # Progress snapshots at power-of-two batch counts show how far
        # along the plan believed it was.
        if self._monitor is not None and (count & (count - 1)) == 0:
            self.record(
                "progress", op=label, batch=count,
                fraction=round(self._monitor.progress(), 6),
            )

    def on_done(self, key, seconds, delta) -> None:
        label, count = self._operators[key]
        self.record(
            "op.done", op=label, batches=count, charged=self._meter.charged
        )

    def on_note(self, kind: str, fields: dict) -> None:
        self.record(kind, **fields)

    def events(self) -> list[dict]:
        """Retained events, oldest first."""
        return list(self._events)

    def last_operator(self) -> str:
        """The operator named by the most recent batch/row event — the
        one the engine was executing when it died."""
        for event in reversed(self._events):
            if event["kind"] in ("batch", "rows") and "op" in event:
                return event["op"]
        return ""


def flight_path(directory, workload: str, suffix: str = "") -> Path:
    """``<directory>/FLIGHT_<workload>[_<suffix>].json``."""
    name = f"{FLIGHT_PREFIX}{workload}"
    if suffix:
        name += f"_{suffix}"
    return Path(directory) / f"{name}.json"


def _clean_event(event: dict) -> dict:
    """Artifact form of one event: ``fmt_stat`` floats, strict JSON."""
    return {
        key: fmt_stat(value) if isinstance(value, float) else value
        for key, value in event.items()
    }


def build_flight_dump(
    recorder: FlightRecorder,
    *,
    workload: str,
    reason: str,
    strategy: str = "",
    seed: int | None = None,
    result=None,
    monitor=None,
    ledger=None,
    clamped_charges: int = 0,
) -> dict:
    """Assemble the strict-JSON dump document for one dead run.

    ``result`` is the :class:`~repro.exec.runtime.QueryResult` (supplies
    metrics and the quarantine report), ``monitor`` the run's
    :class:`~repro.obs.runtime_telemetry.RuntimeMonitor` (supplies the
    frozen progress state), ``ledger`` the *optimization-time*
    :class:`~repro.obs.provenance.ProvenanceLedger` (supplies placement
    provenance for the operator that died). All optional — a dump from a
    bare executor still carries the timeline.
    """
    died_in = recorder.last_operator()
    document: dict = {
        "schema_version": FLIGHT_SCHEMA_VERSION,
        "kind": "flight",
        "workload": workload,
        "reason": reason,
        "capacity": recorder.capacity,
        "events_recorded": recorder.recorded,
        "last_operator": died_in,
        "clock": recorder.clock.snapshot(),
        "events": [_clean_event(event) for event in recorder.events()],
    }
    if strategy:
        document["strategy"] = strategy
    if seed is not None:
        document["seed"] = seed
    if monitor is not None:
        operators = []
        for progress in sorted(
            monitor.operators.values(), key=lambda item: item.index
        ):
            operators.append(
                {
                    "op": progress.index,
                    "label": progress.label,
                    "rows_out": progress.rows_out,
                    "estimated_rows": fmt_stat(
                        round(progress.estimated_rows, 6)
                    ),
                    "active": progress.active,
                    "done": progress.done,
                    "fraction": fmt_stat(round(progress.fraction, 6)),
                }
            )
        document["progress"] = {
            "state": monitor.state,
            "reason": monitor.reason,
            "fraction": fmt_stat(round(monitor.progress(), 6)),
            "operators": operators,
        }
    if result is not None:
        metrics = result.metrics or {}
        document["metrics"] = {
            key: fmt_stat(value) if isinstance(value, float) else value
            for key, value in sorted(metrics.items())
        }
        quarantine = result.quarantine
        if quarantine is not None:
            document["quarantine"] = {
                "quarantined": quarantine.quarantined,
                "retries": quarantine.retries,
                "recovered": quarantine.recovered,
                "failures": quarantine.failures,
                "backoff_units": fmt_stat(quarantine.backoff_units),
                "entries": [
                    entry.as_dict()
                    for entry in quarantine.entries[:MAX_DUMP_QUARANTINE]
                ],
            }
    document["clamped_charges"] = clamped_charges
    if ledger is not None and getattr(ledger, "enabled", False):
        # Placement provenance for the operator that died: the ledger
        # events whose payload mentions it (the table a scan reads, the
        # equijoin predicate a join matches on), newest last, bounded.
        # ``SeqScan(emp)`` → ``emp``; ``hash-join  [a.x = b.y]`` →
        # ``a.x = b.y``; no operator name → keep everything (bounded).
        needle = died_in
        if "[" in needle:
            needle = needle.split("[", 1)[1].rstrip("]")
        elif "(" in needle:
            needle = needle.split("(", 1)[1].rstrip(")")
        events = []
        for event in ledger.events:
            rendered = json.dumps(_json_safe(event.as_dict()))
            if not needle or needle in rendered:
                events.append(event.as_dict())
        document["provenance"] = [
            _json_safe(event) for event in events[-MAX_DUMP_PROVENANCE:]
        ]
    return _json_safe(document)


def write_flight_dump(path, document: dict) -> Path:
    """Write one dump (strict JSON, trailing newline) and return its path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, allow_nan=False)
        handle.write("\n")
    return target


def load_flight_dump(path) -> dict:
    """Read one dump back, validating shape and schema version."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as error:
        raise ArtifactError(
            f"cannot read flight dump {path}: {error}"
        ) from None
    except json.JSONDecodeError as error:
        raise ArtifactError(
            f"flight dump {path} is not valid JSON: {error}"
        ) from None
    if not isinstance(document, dict):
        raise ArtifactError(f"flight dump {path} is not a JSON object")
    if document.get("kind") != "flight":
        raise ArtifactError(
            f"{path} is not a flight dump (kind="
            f"{document.get('kind')!r})"
        )
    version = document.get("schema_version")
    if version != FLIGHT_SCHEMA_VERSION:
        raise ArtifactError(
            f"flight dump {path} has schema_version {version!r}; "
            f"this build reads {FLIGHT_SCHEMA_VERSION}"
        )
    if not isinstance(document.get("events"), list):
        raise ArtifactError(f"flight dump {path} has no events list")
    return document


def _fmt(value, places: int = 1) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{places}f}"
    return str(value)


def format_postmortem(document: dict, last: int = 12) -> str:
    """The ``repro postmortem`` report: what was the engine doing when
    it died?

    Renders the dump header, a timeline of the last ``last`` events
    (batches, row milestones, retries, quarantines, progress snapshots,
    the abort), the frozen progress state, quarantine/clamp context, and
    the provenance events for the operator that died. Pure function of
    the dump — deterministic, no wall-clock.
    """
    lines: list[str] = []
    workload = document.get("workload", "?")
    title = f"postmortem: {workload}"
    strategy = document.get("strategy")
    if strategy:
        title += f" [{strategy}]"
    seed = document.get("seed")
    if seed is not None:
        title += f" seed={seed}"
    lines.append(title)
    lines.append(f"reason: {document.get('reason', '')}")
    died_in = document.get("last_operator")
    if died_in:
        lines.append(f"died in: {died_in}")
    recorded = document.get("events_recorded", 0)
    events = document.get("events", [])
    dropped = max(0, recorded - len(events))
    lines.append(
        f"events: {recorded} recorded, {len(events)} retained"
        + (f" ({dropped} fell off the ring)" if dropped else "")
    )
    lines.append("")

    lines.append(f"timeline (last {min(last, len(events))} events):")
    for event in events[-last:]:
        kind = event.get("kind", "?")
        seq = event.get("seq", "?")
        t = _fmt(event.get("t"))
        detail = "  ".join(
            f"{key}={_fmt(value)}"
            for key, value in event.items()
            if key not in ("seq", "t", "kind")
        )
        lines.append(f"  #{seq:>5}  t={t:>8}  {kind:<15} {detail}")
    lines.append("")

    progress = document.get("progress")
    if isinstance(progress, dict):
        fraction = progress.get("fraction")
        percent = (
            f"{fraction * 100.0:.1f}%" if isinstance(fraction, float)
            else "n/a"
        )
        lines.append(
            f"frozen progress: {percent} "
            f"(state={progress.get('state', '?')})"
        )
        for operator in progress.get("operators", []):
            if not isinstance(operator, dict):
                continue
            frac = operator.get("fraction")
            done = (
                f"{frac * 100.0:5.1f}%" if isinstance(frac, float)
                else "    —"
            )
            active = "" if operator.get("active") else "  (never ran)"
            lines.append(
                f"  op{operator.get('op', '?')}: {done}  "
                f"rows_out={operator.get('rows_out', 0)}  "
                f"est={_fmt(operator.get('estimated_rows'), 0)}  "
                f"{operator.get('label', '')}{active}"
            )
        lines.append("")

    quarantine = document.get("quarantine")
    if isinstance(quarantine, dict):
        lines.append(
            f"quarantine: {quarantine.get('quarantined', 0)} tuples "
            f"({quarantine.get('failures', 0)} failures, "
            f"{quarantine.get('retries', 0)} retries, "
            f"{quarantine.get('recovered', 0)} recovered, "
            f"backoff {_fmt(quarantine.get('backoff_units'))} units)"
        )
        for entry in quarantine.get("entries", []):
            if isinstance(entry, dict):
                lines.append(
                    f"  {entry.get('action', '?')}: "
                    f"{entry.get('predicate', '?')} after "
                    f"{entry.get('attempts', '?')} attempts"
                )
        lines.append("")

    clamped = document.get("clamped_charges", 0)
    if clamped:
        lines.append(
            f"clamped charges: {clamped} non-finite/negative per-call "
            "costs clamped to 0"
        )
        lines.append("")

    provenance = document.get("provenance")
    if isinstance(provenance, list) and provenance:
        lines.append(
            f"provenance ({len(provenance)} placement events for the "
            "dying operator):"
        )
        for event in provenance:
            if not isinstance(event, dict):
                continue
            detail = "  ".join(
                f"{key}={_fmt(value)}"
                for key, value in event.items()
                if key not in ("seq", "kind")
            )
            lines.append(
                f"  #{event.get('seq', '?'):>4}  "
                f"{event.get('kind', '?'):<22} {detail}"
            )
        lines.append("")

    metrics = document.get("metrics")
    if isinstance(metrics, dict):
        parts = []
        for key in ("charged", "io_charged", "function_charged",
                    "function_calls"):
            if key in metrics:
                parts.append(f"{key}={_fmt(metrics[key])}")
        if parts:
            lines.append("meter at death: " + "  ".join(parts))
    return "\n".join(lines).rstrip()

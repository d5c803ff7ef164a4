"""Observability: tracing, metrics, profiling, and persistent run artifacts.

Four small pieces:

* :mod:`repro.obs.tracer` — span-based decision traces with JSONL export
  and a zero-overhead :class:`NullTracer` default;
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of named counters,
  timers, and gauges, plus :func:`record_run` which mirrors one
  optimize/execute round under uniform ``plan.*`` / ``exec.*`` names;
* :mod:`repro.obs.profile` — a :class:`PhaseProfiler` accumulating
  wall-clock per optimizer/executor phase (enumeration levels, fixpoint
  rounds, DP steps, operators) with a ``top_hotspots`` report and a
  zero-overhead :class:`NullProfiler` default;
* :mod:`repro.obs.artifacts` — schema-versioned ``BENCH_<workload>.json``
  run artifacts (environment, per-strategy measurements, plan
  fingerprints, hotspots) plus :func:`diff_artifacts`, the plan-regression
  gate behind ``python -m repro bench-diff``;
* :mod:`repro.obs.provenance` — a typed :class:`ProvenanceLedger` of every
  placement decision (rank orderings, hoists, rank comparisons, migration
  moves, prunes, virtual joins) with a zero-overhead :class:`NullLedger`
  default, plus the ``repro why`` report and counterfactual re-costing;
* :mod:`repro.obs.chrome` — Chrome ``trace_event`` export of tracer spans
  and profiler phases, loadable in Perfetto;
* :mod:`repro.obs.quality` — the shared :func:`qerror` metric, log-scale
  q-error histograms, and the observed-vs-declared drift detector that
  emits ``stats.drift`` ledger/trace events;
* :mod:`repro.obs.events` — the execution event stream every run-time
  observer listens on (:class:`ExecutionListener`, :class:`EventStream`);
* :mod:`repro.obs.feedback` — the :class:`FeedbackCollector` listener
  and the epoch-versioned :class:`StatsFeedbackStore`
  (``STATS_<workload>.json``) behind ``repro stats`` / ``repro drift``
  and the opt-in ``Catalog.apply_feedback`` injection path;
* :mod:`repro.obs.tables` — the shared fixed-width ASCII table renderer
  behind the bench, stats/drift, chaos, and ``repro top`` reports;
* :mod:`repro.obs.histograms` — :class:`StreamingHistogram`, the
  log-bucketed single-pass histogram with nearest-rank quantiles shared
  by telemetry and the metrics export;
* :mod:`repro.obs.runtime_telemetry` — :class:`RuntimeMonitor`, the live
  per-operator progress estimator, per-predicate cost telemetry, and
  :class:`QueryResourceReport` roll-up behind ``repro top``;
* :mod:`repro.obs.export` — the Prometheus-text / JSON metrics snapshot
  (:func:`build_export` / :func:`export_metrics`) behind
  ``--metrics-export``;
* :mod:`repro.obs.flightrec` — :class:`FlightRecorder`, the fixed-capacity
  execution flight recorder whose ``FLIGHT_<workload>.json`` crash dumps
  back ``repro postmortem``.
"""

from repro.obs.artifacts import (
    ARTIFACT_PREFIX,
    SCHEMA_VERSION,
    ArtifactRecorder,
    Finding,
    artifact_path,
    build_run_artifact,
    canonical_plan_form,
    collect_artifacts,
    diff_artifacts,
    has_regressions,
    load_run_artifact,
    plan_fingerprint,
    record_run_artifact,
)
from repro.obs.chrome import (
    build_chrome_trace,
    export_chrome_trace,
)
from repro.obs.export import (
    PrometheusExport,
    build_export,
    export_metrics,
)
from repro.obs.feedback import (
    STATS_PREFIX,
    STATS_SCHEMA_VERSION,
    FeedbackCollector,
    PredicateObservation,
    StatsFeedbackStore,
    format_drift_report,
    format_stats_epoch,
    predicate_fingerprint,
    stats_path,
)
from repro.obs.flightrec import (
    DEFAULT_CAPACITY,
    FLIGHT_PREFIX,
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    build_flight_dump,
    flight_path,
    format_postmortem,
    load_flight_dump,
    write_flight_dump,
)
from repro.obs.histograms import (
    DEFAULT_QUANTILES,
    StreamingHistogram,
)
from repro.obs.metrics import (
    Counter,
    MetricsRegistry,
    Timer,
    record_run,
)
from repro.obs.provenance import (
    EVENT_KINDS,
    NULL_LEDGER,
    Counterfactual,
    CounterfactualReport,
    LedgerEvent,
    NullLedger,
    ProvenanceLedger,
    counterfactual_report,
    skeleton_signature,
    why_report,
)
from repro.obs.profile import (
    NULL_PHASE,
    NULL_PROFILER,
    NullPhase,
    NullProfiler,
    PhaseProfiler,
    PhaseStat,
)
from repro.obs.quality import (
    DRIFT_QERROR_THRESHOLD,
    DriftFinding,
    catalog_drift,
    detect_drift,
    fmt_stat,
    qerror,
    qerror_histogram,
    quality_summary,
    signed_relative_error,
)
from repro.obs.runtime_telemetry import (
    OperatorProgress,
    PredicateTelemetry,
    QueryResourceReport,
    RuntimeMonitor,
    format_top,
)
from repro.obs.tables import (
    Column,
    Table,
    auto_table,
    fmt_cell,
)
from repro.obs.tracer import (
    NULL_SPAN,
    NULL_TRACER,
    NullSpan,
    NullTracer,
    Span,
    Tracer,
    canonical_value,
)

__all__ = [
    "ARTIFACT_PREFIX",
    "ArtifactRecorder",
    "Column",
    "Counter",
    "Counterfactual",
    "CounterfactualReport",
    "DEFAULT_CAPACITY",
    "DEFAULT_QUANTILES",
    "DRIFT_QERROR_THRESHOLD",
    "DriftFinding",
    "EVENT_KINDS",
    "FLIGHT_PREFIX",
    "FLIGHT_SCHEMA_VERSION",
    "FeedbackCollector",
    "Finding",
    "FlightRecorder",
    "LedgerEvent",
    "MetricsRegistry",
    "NULL_LEDGER",
    "NULL_PHASE",
    "NULL_PROFILER",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullLedger",
    "NullPhase",
    "NullProfiler",
    "NullSpan",
    "NullTracer",
    "OperatorProgress",
    "PhaseProfiler",
    "PhaseStat",
    "PredicateObservation",
    "PredicateTelemetry",
    "PrometheusExport",
    "ProvenanceLedger",
    "QueryResourceReport",
    "RuntimeMonitor",
    "SCHEMA_VERSION",
    "STATS_PREFIX",
    "STATS_SCHEMA_VERSION",
    "Span",
    "StatsFeedbackStore",
    "StreamingHistogram",
    "Table",
    "Timer",
    "Tracer",
    "artifact_path",
    "auto_table",
    "build_chrome_trace",
    "build_export",
    "build_flight_dump",
    "build_run_artifact",
    "canonical_plan_form",
    "canonical_value",
    "catalog_drift",
    "collect_artifacts",
    "counterfactual_report",
    "detect_drift",
    "diff_artifacts",
    "export_chrome_trace",
    "export_metrics",
    "flight_path",
    "fmt_cell",
    "fmt_stat",
    "format_drift_report",
    "format_postmortem",
    "format_stats_epoch",
    "format_top",
    "has_regressions",
    "load_flight_dump",
    "load_run_artifact",
    "plan_fingerprint",
    "predicate_fingerprint",
    "qerror",
    "qerror_histogram",
    "quality_summary",
    "record_run",
    "record_run_artifact",
    "signed_relative_error",
    "skeleton_signature",
    "stats_path",
    "why_report",
    "write_flight_dump",
]

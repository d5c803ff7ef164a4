"""The chaos harness: seeded fault schedules against every strategy.

One :func:`run_chaos` call takes a workload, computes its fault-free
*oracle* rows once, then for each chaos seed generates a
:class:`~repro.faults.plan.FaultPlan`, installs it on the catalog, and
runs every requested strategy through the graceful-degradation ladder
and the containment-enabled executor. Each run is checked against the
robustness invariants:

* **Nothing escapes.** Planning and execution may only fail through
  :class:`~repro.errors.ReproError` subclasses surfaced as structured
  results — any other exception is a violation, as is an uncontained
  ``ReproError`` leaking out of the executor.
* **Recoverable ⇒ oracle-exact.** When the fault plan is recoverable
  under the retry budget (no permanent errors, every transient window
  within ``retries``), the run must complete with zero quarantined
  tuples and exactly the oracle's rows.
* **Unrecoverable ⇒ structured.** Under ``abort`` an exhausted UDF must
  produce a ``completed=False`` result with a populated ``error`` —
  never a traceback. Under ``skip-row``/``assume-fail`` the run must
  complete with the surviving rows a multiset-subset of the oracle;
  under ``assume-pass`` a multiset-superset.
* **Quarantine is honest.** A completed run with an empty quarantine
  must equal the oracle: every masked fault was genuinely recovered.

Latency and corrupted-statistics faults never change result rows: the
clock is simulated (latency only accrues virtual time) and the planner
guardrails clamp hostile statistics into plans that stay semantically
equivalent. Rows are compared in a canonical column order (sorted
tables, schema attribute order) so plans with different join orders
compare equal.

This module imports the optimizer and executor, so it must *not* be
re-exported from ``repro.faults.__init__`` (the executor's containment
layer imports ``repro.faults.clock``, which would close an import
cycle). Import it explicitly: ``from repro.faults.chaos import
run_chaos``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.adaptive.controller import AdaptivePolicy
from repro.bench.workloads import WORKLOADS, Workload, build_workload
from repro.catalog.datagen import build_database
from repro.database import Database
from repro.errors import ReproError
from repro.exec import Executor, FailurePolicy
from repro.exec.containment import DEFAULT_RETRIES, EXHAUSTION_POLICIES
from repro.faults.injector import FaultInjector
from repro.faults.plan import PROFILES, FaultPlan
from repro.obs.flightrec import (
    FlightRecorder,
    build_flight_dump,
    flight_path,
    write_flight_dump,
)
from repro.obs.provenance import ProvenanceLedger
from repro.obs.quality import catalog_drift
from repro.obs.runtime_telemetry import RuntimeMonitor
from repro.obs.tables import Column, Table
from repro.optimizer import optimize, optimize_degraded

#: Default chaos seeds — three distinct schedules per suite run.
DEFAULT_SEEDS = (7, 11, 13)

#: Strategies chaos exercises by default: the ladder's rungs plus the
#: over-eager baseline the paper warns about.
DEFAULT_CHAOS_STRATEGIES = (
    "pushdown",
    "pullrank",
    "migration",
    "exhaustive",
)

#: Ladder rungs eligible for injected planner faults. PushDown is the
#: documented floor of the degradation ladder — faulting it would make
#: "planning always lands somewhere" untestable.
FAULTABLE_STRATEGIES = ("exhaustive", "migration", "pullrank")


@dataclass
class ChaosOutcome:
    """One (seed, strategy) run under faults, plus its invariant audit."""

    seed: int
    strategy: str
    completed: bool = False
    error: str = ""
    row_count: int = 0
    #: ``equal`` | ``subset`` | ``superset`` | ``diverged`` | ``n/a``
    #: (multiset relation of the run's rows to the oracle's).
    rows_vs_oracle: str = "n/a"
    quarantined: int = 0
    retries: int = 0
    recovered: int = 0
    failures: int = 0
    errors_fired: int = 0
    backoff_units: float = 0.0
    latency_units: float = 0.0
    stats_clamped: int = 0
    #: Whole-plan progress at the end of the run (``None`` unless the
    #: suite ran with live telemetry): 1.0 on success, frozen at its
    #: abort-time value on DNF.
    progress: float | None = None
    #: The telemetry monitor's terminal state (``completed``/``aborted``;
    #: empty unless the suite ran with live telemetry).
    monitor_state: str = ""
    #: Ladder rungs that failed before a plan was produced.
    degraded: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    #: Path of the FLIGHT_*.json crash dump this run wrote (empty when
    #: the run completed or the suite ran without ``flight_dir``).
    flight_dump: str = ""
    #: Adaptive twin-run audit (``run_chaos(..., adaptive=True)``):
    #: the same (seed, strategy) executed again with mid-query
    #: re-optimization armed. ``adaptive_vs_static`` is the multiset
    #: relation of the adaptive run's rows to this outcome's rows —
    #: ``"equal"`` is the hard invariant whenever no error faults fired
    #: in either run; ``"n/a"`` when the comparison is not meaningful
    #: (either run DNF'd or error faults made the streams diverge
    #: legitimately).
    adaptive_completed: bool | None = None
    adaptive_error: str = ""
    adaptive_row_count: int = 0
    adaptive_rows_vs_oracle: str = "n/a"
    adaptive_vs_static: str = "n/a"
    adaptive_replans: int = 0
    adaptive_refusals: int = 0
    adaptive_errors_fired: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "strategy": self.strategy,
            "completed": self.completed,
            "error": self.error,
            "row_count": self.row_count,
            "rows_vs_oracle": self.rows_vs_oracle,
            "quarantined": self.quarantined,
            "retries": self.retries,
            "recovered": self.recovered,
            "failures": self.failures,
            "errors_fired": self.errors_fired,
            "backoff_units": self.backoff_units,
            "latency_units": self.latency_units,
            "stats_clamped": self.stats_clamped,
            "progress": self.progress,
            "monitor_state": self.monitor_state,
            "degraded": list(self.degraded),
            "violations": list(self.violations),
            "flight_dump": self.flight_dump,
            "adaptive_completed": self.adaptive_completed,
            "adaptive_error": self.adaptive_error,
            "adaptive_row_count": self.adaptive_row_count,
            "adaptive_rows_vs_oracle": self.adaptive_rows_vs_oracle,
            "adaptive_vs_static": self.adaptive_vs_static,
            "adaptive_replans": self.adaptive_replans,
            "adaptive_refusals": self.adaptive_refusals,
            "adaptive_errors_fired": self.adaptive_errors_fired,
        }


@dataclass
class ChaosReport:
    """Everything one chaos suite run learned, JSON-serialisable."""

    workload: str
    scale: int
    db_seed: int
    profile: str
    policy: str
    retries: int
    strategies: tuple[str, ...]
    seeds: tuple[int, ...]
    #: Whether each run was paired with an adaptive twin (and the policy
    #: knobs it ran under).
    adaptive: bool = False
    drift_threshold: float | None = None
    max_replans: int | None = None
    oracle_rows: int = 0
    fault_plans: dict[int, dict] = field(default_factory=dict)
    outcomes: list[ChaosOutcome] = field(default_factory=list)
    #: Per-seed drift audit: what the drift detector flagged on the
    #: corrupted catalog vs what the fault plan actually corrupted.
    drift: dict[int, dict] = field(default_factory=dict)

    @property
    def violations(self) -> list[str]:
        found = [
            f"seed {o.seed} {o.strategy}: {violation}"
            for o in self.outcomes
            for violation in o.violations
        ]
        # Observability invariant: every statistic a corrupt-stats fault
        # poisoned must be flagged by the drift detector. Containment
        # keeps corrupted stats from changing rows; this keeps them from
        # staying *invisible*.
        for seed in sorted(self.drift):
            for miss in self.drift[seed].get("missed", []):
                found.append(
                    f"seed {seed} drift: corrupted statistic {miss} "
                    "not flagged by the drift detector"
                )
        return found

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "scale": self.scale,
            "db_seed": self.db_seed,
            "profile": self.profile,
            "policy": self.policy,
            "retries": self.retries,
            "strategies": list(self.strategies),
            "seeds": list(self.seeds),
            "adaptive": self.adaptive,
            "drift_threshold": self.drift_threshold,
            "max_replans": self.max_replans,
            "oracle_rows": self.oracle_rows,
            "fault_plans": {
                str(seed): plan for seed, plan in self.fault_plans.items()
            },
            "drift": {
                str(seed): audit for seed, audit in self.drift.items()
            },
            "outcomes": [outcome.as_dict() for outcome in self.outcomes],
            "violations": self.violations,
            "passed": self.passed,
        }


def _canonical_project(db: Database, workload: Workload) -> list[tuple]:
    """A plan-independent output column order for row comparison."""
    return [
        (table, name)
        for table in sorted(workload.query.tables)
        for name in db.catalog.table(table).schema.attribute_names
    ]


def _workload_functions(workload: Workload) -> list[str]:
    """The UDF names the workload's predicates invoke — fault targets."""
    names: set[str] = set()
    for predicate in workload.query.predicates:
        names.update(predicate.expr.function_names())
    return sorted(names)


def _relation(rows: list[tuple], oracle: list[tuple]) -> str:
    """Multiset relation of a run's rows to the oracle's rows."""
    got, want = Counter(rows), Counter(oracle)
    if got == want:
        return "equal"
    if not got - want:
        return "subset"
    if not want - got:
        return "superset"
    return "diverged"


def _audit(
    outcome: ChaosOutcome,
    relation: str,
    recoverable: bool,
    policy: str,
) -> None:
    """Apply the robustness invariants; append violations in place."""
    if recoverable:
        if not outcome.completed:
            outcome.violations.append(
                f"recoverable plan did not complete: {outcome.error!r}"
            )
        elif outcome.quarantined:
            outcome.violations.append(
                f"recoverable plan quarantined {outcome.quarantined} rows"
            )
        elif relation != "equal":
            outcome.violations.append(
                f"recoverable plan rows {relation} oracle"
            )
        return
    if not outcome.completed:
        if policy != "abort":
            outcome.violations.append(
                f"policy {policy!r} must complete, got DNF: {outcome.error!r}"
            )
        elif not outcome.error:
            outcome.violations.append("DNF without a structured error")
        return
    # Completed under an unrecoverable plan: either the fault never
    # actually fired (clean run must equal the oracle) or the policy
    # decided some verdicts (quarantine must be honest about which way).
    if outcome.quarantined == 0:
        if relation != "equal":
            outcome.violations.append(
                f"clean run (no quarantine) rows {relation} oracle"
            )
        return
    if policy == "abort":
        outcome.violations.append(
            "abort policy completed with quarantined rows"
        )
    elif policy == "assume-pass":
        if relation not in ("equal", "superset"):
            outcome.violations.append(
                f"assume-pass rows {relation} oracle (need superset)"
            )
    elif relation not in ("equal", "subset"):
        outcome.violations.append(
            f"{policy} rows {relation} oracle (need subset)"
        )


def _audit_telemetry(outcome: ChaosOutcome, result, monitor) -> None:
    """The live-telemetry invariants under faults.

    Success ⇒ progress is exactly 1.0; abort ⇒ progress is frozen in
    [0, 1) with the monitor in ``aborted`` state carrying the run's
    structured reason. Either way the resource report must exist — a
    monitor that loses a run is as bad as a traceback.
    """
    progress = monitor.progress()
    if result.completed:
        if monitor.state != "completed":
            outcome.violations.append(
                f"telemetry: completed run left monitor in "
                f"state {monitor.state!r}"
            )
        elif progress != 1.0:
            outcome.violations.append(
                f"telemetry: completed run reports progress "
                f"{progress:.4f}, not 1.0"
            )
    else:
        if monitor.state != "aborted":
            outcome.violations.append(
                f"telemetry: DNF run left monitor in "
                f"state {monitor.state!r}, not 'aborted'"
            )
        elif not monitor.reason:
            outcome.violations.append(
                "telemetry: aborted monitor carries no structured reason"
            )
        elif not 0.0 <= progress < 1.0:
            outcome.violations.append(
                f"telemetry: aborted run reports progress "
                f"{progress:.4f}, not frozen below 1.0"
            )
    if result.resources is None:
        outcome.violations.append(
            "telemetry: execution produced no resource report"
        )


def run_chaos(
    workload_key: str,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    strategies: tuple[str, ...] = DEFAULT_CHAOS_STRATEGIES,
    policy: str = "abort",
    retries: int = DEFAULT_RETRIES,
    scale: int = 5,
    db_seed: int = 42,
    profile: str = "mixed",
    planner_fault_rate: float = 0.25,
    telemetry: bool = False,
    flight_dir: str | None = None,
    adaptive: bool = False,
    drift_threshold: float | None = None,
    max_replans: int | None = None,
) -> ChaosReport:
    """Run the chaos suite for one workload; returns the full report.

    Builds a private database (``scale``/``db_seed``), computes the
    fault-free oracle rows once, then per chaos seed installs a
    generated :class:`FaultPlan` and runs every strategy through
    :func:`~repro.optimizer.optimize_degraded` (so injected planner
    faults degrade down the ladder) and a containment-enabled
    :class:`~repro.exec.Executor`. Execution is unbudgeted: the only
    DNFs a chaos run may produce are UDF aborts, which keeps the
    invariants exact.

    ``telemetry=True`` attaches a fresh
    :class:`~repro.obs.runtime_telemetry.RuntimeMonitor` to every
    execution and audits its invariants under faults: a completed run's
    progress must end at exactly 1.0, an aborted one must be frozen
    with a structured reason — violations land in the report like any
    other invariant breach.

    ``flight_dir`` attaches an execution
    :class:`~repro.obs.flightrec.FlightRecorder` (timestamped on the
    injector's simulated clock) to every strategy run; any run that
    dies serializes a ``FLIGHT_<workload>_seed<seed>_<strategy>.json``
    crash dump into the directory, its path recorded in the outcome's
    ``flight_dump`` — deterministic input for ``repro postmortem``.

    ``adaptive=True`` pairs every (seed, strategy) run with a *twin*
    execution on a freshly planned copy of the same query with mid-query
    re-optimization armed (``drift_threshold`` / ``max_replans``
    override the :class:`~repro.adaptive.AdaptivePolicy` defaults). The
    twin is audited against the same oracle invariants, and — the hard
    equivalence gate — whenever **no error faults fired in either run**
    (always true under ``--profile stats``, whose corruption is
    install-time only), the twin's row multiset must equal the static
    run's exactly: re-planning may move work, never rows. When error
    faults did fire, the two runs legitimately consume the fault
    schedule at different call indices and only the per-run oracle
    invariants apply.
    """
    if workload_key not in WORKLOADS:
        raise ReproError(
            f"unknown workload {workload_key!r}; "
            f"choose one of {sorted(WORKLOADS)}"
        )
    if profile not in PROFILES:
        raise ReproError(
            f"unknown fault profile {profile!r}; "
            f"choose one of {sorted(PROFILES)}"
        )
    if policy not in EXHAUSTION_POLICIES:
        raise ReproError(
            f"unknown on-exhaustion policy {policy!r}; "
            f"choose one of {EXHAUSTION_POLICIES}"
        )
    report = ChaosReport(
        workload=workload_key,
        scale=scale,
        db_seed=db_seed,
        profile=profile,
        policy=policy,
        retries=retries,
        strategies=tuple(strategies),
        seeds=tuple(seeds),
        adaptive=adaptive,
        drift_threshold=drift_threshold,
        max_replans=max_replans,
    )
    policy_kwargs = {}
    if drift_threshold is not None:
        policy_kwargs["drift_threshold"] = drift_threshold
    if max_replans is not None:
        policy_kwargs["max_replans"] = max_replans
    adaptive_policy = AdaptivePolicy(**policy_kwargs) if adaptive else None

    db = build_database(scale=scale, seed=db_seed)
    workload = build_workload(db, workload_key)
    project = _canonical_project(db, workload)
    functions = _workload_functions(workload)

    oracle_plan = optimize(db, workload.query, strategy="pushdown")
    oracle = sorted(
        Executor(db)
        .execute(oracle_plan.plan, project=project)
        .rows
    )
    report.oracle_rows = len(oracle)

    failure_policy = FailurePolicy(retries=retries, on_exhausted=policy)
    for seed in seeds:
        fault_plan = FaultPlan.generate(
            seed,
            functions,
            profile=profile,
            planner_fault_rate=planner_fault_rate,
            strategies=FAULTABLE_STRATEGIES,
        )
        report.fault_plans[seed] = {
            **fault_plan.as_dict(),
            "described": fault_plan.describe(),
        }
        recoverable = fault_plan.recoverable(retries)
        injector = FaultInjector(fault_plan)
        with injector.install(db.catalog):
            # Recompile so corrupted catalog statistics reach the
            # compiled predicates — the guardrails' actual input.
            chaos_query = build_workload(db, workload_key).query
            # Drift audit: with the faults installed, every corrupted
            # declaration must be visible to the drift detector (all
            # generated corruptions are invalid-by-domain, so no
            # observations are needed to catch them).
            findings = catalog_drift(db.catalog, names=functions)
            corrupted = {
                (spec.function, fld)
                for spec in fault_plan.specs
                if spec.kind == "corrupt-stats"
                for fld, value in (
                    ("selectivity", spec.selectivity),
                    ("cost_per_call", spec.cost_per_call),
                )
                if value is not None
            }
            flagged = {(f.subject, f.field) for f in findings}
            report.drift[seed] = {
                "findings": [f.as_dict() for f in findings],
                "described": [f.describe() for f in findings],
                "corrupted": sorted(
                    f"{name}.{fld}" for name, fld in corrupted
                ),
                "missed": sorted(
                    f"{name}.{fld}" for name, fld in corrupted - flagged
                ),
            }
            for strategy in strategies:
                outcome = ChaosOutcome(seed=seed, strategy=strategy)
                report.outcomes.append(outcome)
                ledger = ProvenanceLedger()
                try:
                    optimized = optimize_degraded(
                        db,
                        chaos_query,
                        strategy=strategy,
                        fault_plan=fault_plan,
                        ledger=ledger,
                    )
                except ReproError as error:
                    # PushDown is never faulted, so the ladder must
                    # always land somewhere: reaching here is a bug.
                    outcome.error = f"planner: {error}"
                    outcome.violations.append(
                        f"planning failed despite ladder: {error}"
                    )
                    continue
                except Exception as error:  # noqa: BLE001 — the point
                    outcome.error = f"uncaught: {error}"
                    outcome.violations.append(
                        f"planning raised non-Repro "
                        f"{type(error).__name__}: {error}"
                    )
                    continue
                outcome.degraded = list(
                    optimized.notes.get("degraded", [])
                )
                outcome.stats_clamped = optimized.notes.get(
                    "stats_clamped", 0
                )
                monitor = RuntimeMonitor() if telemetry else None
                recorder = (
                    FlightRecorder(clock=injector.clock)
                    if flight_dir is not None
                    else None
                )
                runner = Executor(
                    db,
                    failure_policy=failure_policy,
                    clock=injector.clock,
                    listeners=[
                        listener
                        for listener in (recorder, monitor)
                        if listener is not None
                    ],
                )
                fired_before = injector.stats.errors_injected
                clock_before = injector.clock.latency_units
                try:
                    result = runner.execute(
                        optimized.plan, project=project
                    )
                except Exception as error:  # noqa: BLE001 — the point
                    kind = (
                        "uncontained Repro"
                        if isinstance(error, ReproError)
                        else "non-Repro"
                    )
                    outcome.error = f"uncaught: {error}"
                    outcome.violations.append(
                        f"execution raised {kind} "
                        f"{type(error).__name__}: {error}"
                    )
                    continue
                outcome.completed = result.completed
                outcome.error = result.error
                outcome.row_count = result.row_count
                outcome.errors_fired = (
                    injector.stats.errors_injected - fired_before
                )
                outcome.latency_units = (
                    injector.clock.latency_units - clock_before
                )
                quarantine = result.quarantine
                if quarantine is not None:
                    outcome.quarantined = int(
                        result.metrics.get("udf.quarantined", 0)
                    )
                    outcome.retries = quarantine.retries
                    outcome.recovered = quarantine.recovered
                    outcome.failures = quarantine.failures
                    outcome.backoff_units = quarantine.backoff_units
                relation = (
                    _relation(sorted(result.rows), oracle)
                    if result.completed
                    else "n/a"
                )
                outcome.rows_vs_oracle = relation
                _audit(outcome, relation, recoverable, policy)
                if monitor is not None:
                    outcome.progress = round(monitor.progress(), 6)
                    outcome.monitor_state = monitor.state
                    _audit_telemetry(outcome, result, monitor)
                if recorder is not None and not result.completed:
                    document = build_flight_dump(
                        recorder,
                        workload=workload_key,
                        reason=result.error,
                        strategy=strategy,
                        seed=seed,
                        result=result,
                        monitor=monitor,
                        ledger=ledger,
                        clamped_charges=int(db.meter.clamped_charges),
                    )
                    target = write_flight_dump(
                        flight_path(
                            flight_dir,
                            workload_key,
                            suffix=f"seed{seed}_{strategy}",
                        ),
                        document,
                    )
                    outcome.flight_dump = str(target)
                if adaptive_policy is not None:
                    _run_adaptive_twin(
                        db,
                        chaos_query,
                        workload_key,
                        strategy,
                        fault_plan,
                        outcome,
                        result,
                        oracle,
                        project,
                        injector,
                        failure_policy,
                        adaptive_policy,
                        recoverable=recoverable,
                        policy=policy,
                        flight_dir=flight_dir,
                        seed=seed,
                    )
    return report


def _run_adaptive_twin(
    db,
    chaos_query,
    workload_key: str,
    strategy: str,
    fault_plan,
    outcome: ChaosOutcome,
    static_result,
    oracle: list[tuple],
    project,
    injector,
    failure_policy,
    adaptive_policy,
    *,
    recoverable: bool,
    policy: str,
    flight_dir: str | None,
    seed: int,
) -> None:
    """Execute the adaptive twin of one chaos run and audit it in place.

    Plans fresh (the static run's plan must stay pristine — an adaptive
    run re-places predicates on the live plan object); planner faults
    are deterministic per (fault plan, strategy), so the twin degrades
    down the same ladder. Violations land on ``outcome`` prefixed
    ``adaptive:`` so one report row carries both runs' verdicts.
    """
    try:
        optimized = optimize_degraded(
            db, chaos_query, strategy=strategy, fault_plan=fault_plan
        )
    except Exception as error:  # noqa: BLE001 — symmetric with static
        outcome.adaptive_error = f"planner: {error}"
        outcome.violations.append(
            f"adaptive: twin planning failed after static planning "
            f"succeeded: {error}"
        )
        return
    ledger = ProvenanceLedger()
    recorder = (
        FlightRecorder(clock=injector.clock)
        if flight_dir is not None
        else None
    )
    runner = Executor(
        db,
        failure_policy=failure_policy,
        clock=injector.clock,
        listeners=(recorder,) if recorder is not None else (),
        adaptive=adaptive_policy,
        ledger=ledger,
    )
    fired_before = injector.stats.errors_injected
    try:
        result = runner.execute(optimized.plan, project=project)
    except Exception as error:  # noqa: BLE001 — the point
        kind = (
            "uncontained Repro"
            if isinstance(error, ReproError)
            else "non-Repro"
        )
        outcome.adaptive_error = f"uncaught: {error}"
        outcome.violations.append(
            f"adaptive: execution raised {kind} "
            f"{type(error).__name__}: {error}"
        )
        return
    outcome.adaptive_completed = result.completed
    outcome.adaptive_error = result.error
    outcome.adaptive_row_count = result.row_count
    outcome.adaptive_errors_fired = (
        injector.stats.errors_injected - fired_before
    )
    report = result.adaptive
    if report is not None:
        outcome.adaptive_replans = report.replans
        outcome.adaptive_refusals = report.refusals
    relation = (
        _relation(sorted(result.rows), oracle)
        if result.completed
        else "n/a"
    )
    outcome.adaptive_rows_vs_oracle = relation
    # The twin must honour the same oracle invariants as any run.
    audit = ChaosOutcome(seed=outcome.seed, strategy=strategy)
    audit.completed = result.completed
    audit.error = result.error
    audit.quarantined = int(result.metrics.get("udf.quarantined", 0))
    _audit(audit, relation, recoverable, policy)
    outcome.violations.extend(
        f"adaptive: {violation}" for violation in audit.violations
    )
    # The hard equivalence gate: no error faults in either run means the
    # two executions saw identical verdict streams, so re-planning must
    # be row-invisible. (Error faults fire by call index; the two runs
    # consume the schedule differently, making comparison meaningless.)
    if static_result.completed and result.completed:
        if outcome.errors_fired == 0 and outcome.adaptive_errors_fired == 0:
            twin_relation = _relation(
                sorted(result.rows), sorted(static_result.rows)
            )
            outcome.adaptive_vs_static = twin_relation
            if twin_relation != "equal":
                outcome.violations.append(
                    f"adaptive-rows-diverged: adaptive run's rows "
                    f"{twin_relation} the static run's "
                    f"({result.row_count} vs {static_result.row_count}) "
                    f"with no error faults fired"
                )
    if recorder is not None and not result.completed:
        document = build_flight_dump(
            recorder,
            workload=workload_key,
            reason=result.error,
            strategy=strategy,
            seed=seed,
            result=result,
            ledger=ledger,
            clamped_charges=int(db.meter.clamped_charges),
        )
        write_flight_dump(
            flight_path(
                flight_dir,
                workload_key,
                suffix=f"seed{seed}_{strategy}_adaptive",
            ),
            document,
        )


def format_chaos_report(report: ChaosReport) -> str:
    """Human-readable chaos report: fault plans, per-run table, verdict."""
    lines = [
        f"chaos: {report.workload} scale={report.scale} "
        f"db-seed={report.db_seed} profile={report.profile} "
        f"policy={report.policy} retries={report.retries}",
        f"oracle: {report.oracle_rows} rows (fault-free pushdown)",
    ]
    for seed in report.seeds:
        plan = report.fault_plans.get(seed, {})
        lines.append(f"seed {seed}:")
        described = plan.get("described", [])
        if not described:
            lines.append("  (no faults drawn)")
        for fault in described:
            lines.append(f"  fault: {fault}")
        audit = report.drift.get(seed)
        if audit and audit.get("corrupted"):
            missed = audit.get("missed", [])
            verdict = (
                f"MISSED {missed}" if missed else "all flagged"
            )
            lines.append(
                f"  drift: {len(audit.get('findings', []))} finding(s) "
                f"for {len(audit['corrupted'])} corrupted statistic(s) "
                f"— {verdict}"
            )
            for description in audit.get("described", []):
                lines.append(f"  drift: {description}")
    table = Table(
        [
            Column("seed", 5),
            Column("strategy", 10, align="left", gap=2),
            Column("status", 9, align="left"),
            Column("rows", 5),
            Column("vs-oracle", 9, align="left"),
            Column("quar", 5),
            Column("retry", 5),
            Column("fired", 5),
            Column("verdict", gap=2),
        ]
    )
    for o in report.outcomes:
        status = "ok" if o.completed else "DNF"
        if o.violations:
            verdict = "VIOLATION: " + o.violations[0]
        elif o.degraded:
            verdict = f"pass (degraded x{len(o.degraded)})"
        else:
            verdict = "pass"
        if o.progress is not None:
            verdict += f" [{o.progress * 100.0:.0f}%]"
        table.row(
            o.seed,
            o.strategy,
            status,
            o.row_count,
            o.rows_vs_oracle,
            o.quarantined,
            o.retries,
            o.errors_fired,
            verdict,
        )
    lines.append(table.render())
    if report.adaptive:
        lines.append(
            "adaptive twins (same runs, mid-query re-optimization armed):"
        )
        for o in report.outcomes:
            status = (
                "ok" if o.adaptive_completed
                else ("DNF" if o.adaptive_completed is not None else "—")
            )
            lines.append(
                f"  seed {o.seed} {o.strategy}: {status} "
                f"rows={o.adaptive_row_count} "
                f"vs-static={o.adaptive_vs_static} "
                f"replans={o.adaptive_replans} "
                f"refusals={o.adaptive_refusals}"
            )
    for o in report.outcomes:
        if o.flight_dump:
            lines.append(f"flight dump: {o.flight_dump}")
    lines.append(
        f"result: {'PASS' if report.passed else 'FAIL'} "
        f"({len(report.outcomes)} runs, "
        f"{len(report.violations)} violations)"
    )
    return "\n".join(lines)

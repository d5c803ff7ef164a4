"""Live telemetry: progress monotonicity, freezing, and neutrality.

The acceptance contract: whole-plan progress is monotone non-decreasing
under every workload × strategy pair, ends at exactly 100% on success,
freezes (with a structured reason) on DNF, and — with the monitor
detached — leaves every gated BENCH artifact field byte-identical.
"""

import json

import pytest

from repro import Executor, build_database, optimize
from repro.bench.harness import DEFAULT_STRATEGIES, run_strategies
from repro.bench.workloads import WORKLOADS, build_workload
from repro.faults.chaos import run_chaos
from repro.obs.artifacts import strategy_record
from repro.obs.runtime_telemetry import RuntimeMonitor, format_top


@pytest.fixture(scope="module")
def db():
    return build_database(scale=10, seed=42)


class ProbeMonitor(RuntimeMonitor):
    """Asserts progress never decreases after any operator event."""

    def __init__(self):
        super().__init__()
        self.low_water = 0.0
        self.samples = 0

    def _check(self):
        current = self.progress()
        assert 0.0 <= current <= 1.0
        assert current >= self.low_water
        self.low_water = current
        self.samples += 1

    def on_batch(self, key, rows, seconds, delta):
        super().on_batch(key, rows, seconds, delta)
        self._check()

    def on_done(self, key, seconds, delta):
        super().on_done(key, seconds, delta)
        self._check()


# -- the acceptance sweep ----------------------------------------------------


@pytest.mark.parametrize("strategy", DEFAULT_STRATEGIES)
@pytest.mark.parametrize("workload_key", sorted(WORKLOADS))
def test_progress_monotone_and_terminal(db, workload_key, strategy):
    workload = build_workload(db, workload_key)
    optimized = optimize(db, workload.query, strategy=strategy)
    monitor = ProbeMonitor()
    executor = Executor(db, budget=workload.budget, listeners=(monitor,))
    result = executor.execute(
        optimized.plan, project=workload.query.select
    )
    assert monitor.samples > 0
    if result.completed:
        assert monitor.state == "completed"
        assert monitor.progress() == 1.0
    else:
        # The workload budget DNFs some plans (the paper's "never
        # completed" bars): progress freezes strictly below 100% with
        # a structured reason, never a traceback.
        assert monitor.state == "aborted"
        assert monitor.reason.startswith("budget:")
        assert 0.0 <= monitor.progress() < 1.0
    assert result.resources is not None
    assert result.resources.state == monitor.state
    # format_top renders every terminal state without raising.
    assert "progress" in format_top(
        monitor, title=workload_key, resources=result.resources
    )


# -- freezing ----------------------------------------------------------------


def test_budget_freeze_pins_progress(db):
    workload = build_workload(db, "q1")
    optimized = optimize(db, workload.query, strategy="pushdown")
    monitor = RuntimeMonitor()
    executor = Executor(db, budget=50.0, listeners=(monitor,))
    result = executor.execute(optimized.plan)
    assert not result.completed
    assert monitor.state == "aborted"
    frozen = monitor.progress()
    assert 0.0 <= frozen < 1.0
    # Frozen means frozen: neither reads nor late events thaw it.
    monitor.on_batch(
        next(iter(monitor.operators)), 1, 0.0, (0.0, 0.0, 0.0, 0)
    )
    monitor.complete()
    assert monitor.progress() == frozen
    assert monitor.state == "aborted"
    assert result.resources.reason.startswith("budget:")


def test_freeze_idempotent():
    monitor = RuntimeMonitor()
    monitor.freeze("budget: first")
    monitor.freeze("budget: second")
    assert monitor.reason == "budget: first"
    assert monitor.state == "aborted"


def test_fresh_monitor_reports_zero():
    monitor = RuntimeMonitor()
    assert monitor.progress() == 0.0
    assert monitor.state == "pending"


# -- resource accounting -----------------------------------------------------


def test_resource_report_matches_executor_metrics(db):
    workload = build_workload(db, "q4")
    optimized = optimize(db, workload.query, strategy="migration")
    monitor = RuntimeMonitor()
    executor = Executor(db, listeners=(monitor,))
    result = executor.execute(
        optimized.plan, project=workload.query.select
    )
    report = result.resources
    assert report is not None
    assert report.rows_out == result.row_count
    assert report.charged == result.charged
    assert report.udf_calls == int(result.metrics["function_calls"])
    assert report.function_charged == result.metrics["function_charged"]
    assert report.progress == 1.0
    document = report.as_dict()
    assert document["state"] == "completed"
    assert document["progress"] == 1.0
    # The roll-up is artifact-bound: deterministic and JSON-safe.
    assert json.dumps(document, sort_keys=True)


def test_caching_run_reports_cache_traffic(db):
    workload = build_workload(db, "q4")
    optimized = optimize(
        db, workload.query, strategy="pushdown", caching=True
    )
    monitor = RuntimeMonitor()
    executor = Executor(db, caching=True, listeners=(monitor,))
    result = executor.execute(optimized.plan)
    report = result.resources
    assert report.cache_hits + report.cache_misses > 0
    assert report.cache_entries > 0


# -- selectivity refinement --------------------------------------------------


def test_observed_selectivity_refines_estimates(db):
    workload = build_workload(db, "q1")
    optimized = optimize(db, workload.query, strategy="pushdown")
    monitor = RuntimeMonitor()
    executor = Executor(db, listeners=(monitor,))
    executor.execute(optimized.plan)
    observed = [
        telemetry
        for telemetry in monitor.predicates.values()
        if telemetry.evaluated > 0
    ]
    assert observed, "q1 must evaluate at least one tracked predicate"
    for telemetry in observed:
        assert 0.0 <= telemetry.observed_selectivity <= 1.0
        assert telemetry.cost.count == telemetry.evaluated


# -- neutrality: telemetry off must not move a single gated byte -------------


GATED_FIELDS = (
    "strategy",
    "fingerprint",
    "estimated_cost",
    "charged",
    "rows",
    "function_calls",
    "estimation_error",
    "relative",
    "completed",
    "executed",
    "error",
)


def _gated(outcomes):
    documents = []
    for outcome in outcomes:
        record = strategy_record(outcome)
        documents.append({key: record.get(key) for key in GATED_FIELDS})
    return json.dumps(documents, sort_keys=True)


def test_telemetry_off_is_byte_neutral(db):
    workload = build_workload(db, "q4")
    plain = run_strategies(
        db, workload.query, budget=workload.budget, telemetry=False
    )
    monitored = run_strategies(
        db, workload.query, budget=workload.budget, telemetry=True
    )
    assert _gated(plain) == _gated(monitored)
    for outcome in plain:
        assert "resources" not in outcome.extras
        assert "monitor" not in outcome.extras
    for outcome in monitored:
        assert outcome.extras["resources"]["state"] == "completed"
        assert outcome.extras["monitor"].progress() == 1.0


def test_artifact_records_embed_resources(db):
    workload = build_workload(db, "q1")
    outcomes = run_strategies(
        db,
        workload.query,
        strategies=("pushdown",),
        budget=workload.budget,
        telemetry=True,
    )
    record = strategy_record(outcomes[0])
    resources = record["resources"]
    assert resources["state"] == "completed"
    # The live monitor object itself must never leak into the record.
    assert json.dumps(record, sort_keys=True)


# -- chaos interplay ---------------------------------------------------------


def test_chaos_suite_passes_with_monitor_attached():
    report = run_chaos(
        "q1", seeds=(7,), scale=5, telemetry=True
    )
    assert report.passed, [
        violation
        for outcome in report.outcomes
        for violation in outcome.violations
    ]
    for outcome in report.outcomes:
        if outcome.error:
            continue
        assert outcome.progress is not None
        assert outcome.monitor_state in ("completed", "aborted")

"""Budget-DNF coverage: the executor's cost-budget abort path.

The paper's Query 5 footnote ("never completed") is reproduced by a
charged-cost budget: execution stops the moment the meter's charge
exceeds it. These tests pin the DNF contract — where the abort can
strike (mid-selection, mid-join), what the meter and ``error`` field
must say afterwards, and that a budget exactly at the final charge is
*not* an abort (the check is strictly greater-than).

The batch engine charges in bulk, so it is also held to the budget
frontier against the tuple-at-a-time reference tree
(``reference_executor.py``): across q1–q5 × every strategy × three data
seeds, at budgets below, at and above each run's completion boundary,
a DNF's charge, the UDF calls it paid for, the frozen ``repro top``
progress and the flight dump's meter at death all land within one
charge quantum of where the reference stopped.
"""

import pytest

from repro.bench.harness import DEFAULT_STRATEGIES
from repro.bench.workloads import build_workload, ensure_workload_functions
from repro.catalog.datagen import build_database
from repro.errors import BudgetExceededError
from repro.exec import Executor
from repro.obs.flightrec import (
    FlightRecorder,
    build_flight_dump,
    format_postmortem,
)
from repro.obs.runtime_telemetry import RuntimeMonitor
from repro.optimizer import optimize
from repro.sql import compile_query
from tests.reference_executor import charge_quantum, paid_calls, run_reference

QUERY_WORKLOADS = ("q1", "q2", "q3", "q4", "q5")
SEEDS = (7, 11, 13)


@pytest.fixture(scope="module")
def seeded_dbs():
    databases = {}
    for seed in SEEDS:
        database = build_database(scale=12, seed=seed)
        ensure_workload_functions(database)
        databases[seed] = database
    return databases


@pytest.fixture(scope="module")
def db():
    database = build_database(scale=10, seed=42)
    ensure_workload_functions(database)
    return database


def selection_plan(db):
    """A single-table scan whose expensive filter dominates the charge."""
    query = compile_query(
        db, "SELECT * FROM t3 WHERE costly100(t3.u20)", name="sel"
    )
    return optimize(db, query, strategy="pushdown").plan


def join_plan(db):
    """Query 1's join, planned so the expensive filter runs mid-plan."""
    return optimize(
        db, build_workload(db, "q1").query, strategy="pushdown"
    ).plan


class TestBudgetDnf:
    def test_mid_selection_abort(self, db):
        plan = selection_plan(db)
        full = Executor(db).execute(plan)
        assert full.completed
        budget = full.charged / 2
        result = Executor(db, budget=budget).execute(plan)
        assert not result.completed
        assert result.rows == [] or len(result.rows) < len(full.rows)
        # The structured DNF reason names both sides of the comparison.
        assert result.error == (
            f"budget: charged {result.charged:.1f} > budget {budget:.1f}"
        )
        # The meter stopped at the violating charge: above the budget,
        # but short of the fault-free total (execution really stopped).
        assert budget < result.charged < full.charged
        assert result.metrics["charged"] == result.charged
        assert (
            result.metrics["function_calls"] < full.metrics["function_calls"]
        )

    def test_mid_join_abort(self, db):
        plan = join_plan(db)
        full = Executor(db).execute(plan)
        assert full.completed
        budget = full.charged * 0.75
        result = Executor(db, budget=budget).execute(plan)
        assert not result.completed
        assert result.error.startswith("budget: charged")
        assert budget < result.charged < full.charged
        assert len(result.rows) < len(full.rows)

    def test_budget_exactly_at_total_charge_completes(self, db):
        plan = selection_plan(db)
        full = Executor(db).execute(plan)
        at_boundary = Executor(db, budget=full.charged).execute(plan)
        assert at_boundary.completed
        assert at_boundary.error == ""
        assert at_boundary.charged == full.charged
        assert sorted(at_boundary.rows) == sorted(full.rows)

    def test_budget_just_below_total_charge_aborts(self, db):
        plan = selection_plan(db)
        full = Executor(db).execute(plan)
        result = Executor(
            db, budget=full.charged - 1e-6
        ).execute(plan)
        assert not result.completed
        assert result.error.startswith("budget:")

    def test_raise_on_budget_propagates_structured_error(self, db):
        plan = selection_plan(db)
        full = Executor(db).execute(plan)
        executor = Executor(db, budget=full.charged / 2)
        with pytest.raises(BudgetExceededError) as exc_info:
            executor.execute(plan, raise_on_budget=True)
        assert exc_info.value.charged > exc_info.value.budget

    def test_dnf_restores_database_budget(self, db):
        plan = selection_plan(db)
        db.meter.budget = None
        result = Executor(db, budget=1.0).execute(plan)
        assert not result.completed
        # The executor must not leak its private budget into the shared
        # meter after a DNF.
        assert db.meter.budget is None

    def test_q5_workload_budget_reproduces_paper_dnf(self, db):
        workload = build_workload(db, "q5")
        assert workload.budget is not None
        plan = optimize(db, workload.query, strategy="pullup").plan
        result = Executor(db, budget=workload.budget).execute(plan)
        assert not result.completed
        assert result.error.startswith("budget:")


class TestBudgetFrontier:
    """The four things a DNF reports, held to the reference tree. Each
    observation surface runs separately: an attached monitor switches
    predicate evaluation to its per-call bracket, so the bare and the
    flight-recorded runs are the ones that exercise the bulk charges."""

    @pytest.mark.parametrize("workload_key", QUERY_WORKLOADS)
    @pytest.mark.parametrize("strategy", DEFAULT_STRATEGIES)
    def test_dnf_reports_match_reference(
        self, seeded_dbs, workload_key, strategy
    ):
        for seed in SEEDS:
            db = seeded_dbs[seed]
            workload = build_workload(db, workload_key)
            plan = optimize(db, workload.query, strategy=strategy).plan
            quantum = charge_quantum(db, plan)
            full = run_reference(db, plan).charged
            for budget in (
                full * 0.1, full * 0.5, full - 1e-6, full, full + quantum
            ):
                label = (
                    f"{workload_key}/{strategy}/seed={seed}/budget={budget}"
                )
                reference = run_reference(db, plan, budget=budget)
                assert paid_calls(db) == reference.metrics["function_calls"]
                result = Executor(db, budget=budget).execute(plan)
                result_paid = paid_calls(db)
                assert result.completed == reference.completed, label
                recorder = FlightRecorder()
                recorded = Executor(
                    db, budget=budget, listeners=(recorder,)
                ).execute(plan)
                monitor = RuntimeMonitor()
                monitored = Executor(
                    db, budget=budget, listeners=(monitor,)
                ).execute(plan)
                if reference.completed:
                    assert recorded.completed and monitored.completed, label
                    assert recorder.tripped == "", label
                    assert monitor.state == "completed", label
                    assert monitor.progress() == 1.0, label
                    continue
                # 1. The charge at abort.
                assert budget < result.charged, label
                assert abs(result.charged - reference.charged) <= quantum, (
                    f"{label}: {result.charged} vs {reference.charged}"
                )
                # 2. function_calls: every UDF call made was paid for —
                # a batch dispatches no call past the one that crossed
                # the budget — and the UDF spend stops within the same
                # quantum of the budget.
                assert result_paid == result.metrics["function_calls"]
                assert result.metrics["function_charged"] <= (
                    budget + quantum
                ), label
                # 3. Frozen `repro top` progress: aborted, with the DNF
                # reason and the meter as it stood at the abort.
                assert not monitored.completed, label
                assert monitor.state == "aborted", label
                assert monitor.reason == monitored.error, label
                assert monitor.progress() < 1.0, label
                report = monitored.resources
                assert report.state == "aborted", label
                assert report.charged == monitored.charged, label
                assert abs(report.charged - reference.charged) <= quantum
                # 4. The flight dump's meter at death.
                assert not recorded.completed, label
                assert recorder.tripped == recorded.error, label
                document = build_flight_dump(
                    recorder,
                    workload=workload_key,
                    reason=recorded.error,
                    result=recorded,
                )
                death = document["metrics"]["charged"]
                assert abs(death - reference.charged) <= quantum, label
                assert (
                    f"meter at death: charged={death:.1f}"
                    in format_postmortem(document)
                ), label

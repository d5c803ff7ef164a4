"""Mid-query adaptive re-optimization: the tentpole invariants.

Three families of guarantees, each load-bearing for trusting
``--adaptive`` in production:

* **Equivalence** — the adaptive run's row multiset always equals the
  static run's, and a run that never re-plans charges *exactly* what
  the static run charges (the controller's taps are free).
* **Profit** — on the seeded misestimation workload the re-plan must
  actually fire (≥1 applied), must beat the static plan's charged
  cost, and must leave a ``plan.replan`` trail in both the provenance
  ledger and the flight recorder.
* **Guardrails** — the re-plan budget refuses further moves when
  exhausted, the hysteresis gate refuses placements already realised
  (A→B→A), sub-threshold drift stays inert, and a plan with nothing to
  move disables adaptivity up front instead of pretending to watch.
"""

import pytest

from repro import build_database
from repro.adaptive.bench import (
    MIN_ADAPT_SCALE,
    format_adapt_report,
    run_adapt_bench,
    write_adapt_artifact,
)
from repro.adaptive.controller import AdaptiveController, AdaptivePolicy
from repro.adaptive.workloads import ADAPT_WORKLOADS, build_adapt_workload
from repro.errors import ArtifactError
from repro.exec import Executor
from repro.obs.flightrec import FlightRecorder
from repro.obs.provenance import ProvenanceLedger
from repro.optimizer import optimize
from repro.sql import compile_query

SCALE = 100
SEED = 42


def _optimized(db, key, strategy="migration"):
    return optimize(
        db, build_adapt_workload(db, key).query, strategy=strategy
    ).plan


def _run(key, *, adaptive, policy=None, flight=None, ledger=None):
    """Fresh database + plan + execution; returns the QueryResult."""
    db = build_database(scale=SCALE, seed=SEED)
    plan = _optimized(db, key)
    executor = Executor(
        db,
        adaptive=(policy or AdaptivePolicy()) if adaptive else None,
        ledger=ledger,
        listeners=(flight,) if flight is not None else (),
    )
    return executor.execute(plan)


def _rows(result):
    return sorted(tuple(row) for row in result.rows)


@pytest.fixture(scope="module")
def bench():
    document, violations = run_adapt_bench(scale=SCALE, seed=SEED)
    return document, violations


class TestBenchGates:
    def test_no_gate_violations(self, bench):
        document, violations = bench
        assert violations == [], "\n".join(violations)
        assert document["violations"] == []

    def test_all_scenarios_ran(self, bench):
        document, _ = bench
        assert set(document["scenarios"]) == set(ADAPT_WORKLOADS)

    def test_rows_identical_everywhere(self, bench):
        document, _ = bench
        for key, record in document["scenarios"].items():
            assert record["rows_equal"], key
            assert record["static"]["rows"] == record["adaptive"]["rows"]

    def test_misestimation_scenario_improves(self, bench):
        document, _ = bench
        record = document["scenarios"]["adapt_drift"]
        report = record["adaptive"]["report"]
        assert report["replans"] >= 1
        assert record["adaptive"]["ledger_replan_events"] >= 1
        assert record["charged_delta"] < 0
        applied = [
            event for event in report["events"]
            if event["action"] == "applied"
        ]
        assert applied, report["events"]
        assert applied[0]["moves"], "an applied re-plan must move something"

    def test_honest_scenarios_inert(self, bench):
        document, _ = bench
        for key in ("adapt_honest", "adapt_mild"):
            record = document["scenarios"][key]
            report = record["adaptive"]["report"]
            assert report["replans"] == 0, key
            assert record["charged_delta"] == 0.0, key

    def test_artifact_roundtrip(self, bench, tmp_path):
        document, _ = bench
        target = write_adapt_artifact(tmp_path, document)
        assert target.name == "BENCH_adapt.json"
        text = format_adapt_report(document)
        assert "all gates hold" in text
        assert "adapt_drift" in text

    def test_scale_floor_refused(self):
        with pytest.raises(ArtifactError, match="scale >= "):
            run_adapt_bench(scale=MIN_ADAPT_SCALE - 1, seed=SEED)


class TestEquivalence:
    def test_zero_replan_run_charges_exactly_static(self):
        static = _run("adapt_honest", adaptive=False)
        adaptive = _run("adapt_honest", adaptive=True)
        assert adaptive.adaptive is not None
        assert adaptive.adaptive.replans == 0
        assert adaptive.charged == static.charged
        assert _rows(adaptive) == _rows(static)

    def test_replanned_run_same_rows_lower_charge(self):
        static = _run("adapt_drift", adaptive=False)
        adaptive = _run("adapt_drift", adaptive=True)
        assert adaptive.adaptive.replans >= 1
        assert adaptive.charged < static.charged
        assert _rows(adaptive) == _rows(static)

    def test_replan_trail_in_ledger_and_flight(self):
        ledger = ProvenanceLedger()
        flight = FlightRecorder()
        result = _run(
            "adapt_drift", adaptive=True, ledger=ledger, flight=flight
        )
        assert result.adaptive.replans >= 1
        replans = ledger.events_of("plan.replan")
        assert len(replans) >= 1
        assert any(e.data["action"] == "applied" for e in replans)
        assert ledger.events_of("stats.drift"), (
            "the drift finding itself must be on the record"
        )
        flight_replans = [
            e for e in flight.events() if e["kind"] == "replan"
        ]
        assert any(e["action"] == "applied" for e in flight_replans)

    def test_drift_event_reports_qerror_and_slots(self):
        result = _run("adapt_drift", adaptive=True)
        applied = [
            event for event in result.adaptive.events
            if event["action"] == "applied"
        ]
        assert applied
        event = applied[0]
        assert event["rung"] in ("migration", "pushdown")
        assert event["estimated_gain"] > 0
        move = event["moves"][0]
        assert move["from_slot"] != move["to_slot"]
        assert any("q-error" in line for line in event["drift"])


class TestGuardrails:
    def test_budget_zero_refuses_and_stays_static(self):
        static = _run("adapt_drift", adaptive=False)
        policy = AdaptivePolicy(max_replans=0)
        result = _run("adapt_drift", adaptive=True, policy=policy)
        report = result.adaptive
        assert report.replans == 0
        assert report.refusals >= 1
        refusal = [
            e for e in report.events if e["action"] == "refused"
        ][0]
        assert "budget exhausted" in refusal["reason"]
        # A refused re-plan must leave the execution untouched.
        assert result.charged == static.charged
        assert _rows(result) == _rows(static)

    def test_budget_one_caps_applied_replans(self):
        policy = AdaptivePolicy(max_replans=1)
        result = _run("adapt_drift", adaptive=True, policy=policy)
        assert result.adaptive.replans == 1

    def test_threshold_above_qerror_stays_inert(self):
        # The drift scenario's realized q-error is ~2.47; a threshold
        # above it must never trigger.
        policy = AdaptivePolicy(drift_threshold=3.0)
        static = _run("adapt_drift", adaptive=False)
        result = _run("adapt_drift", adaptive=True, policy=policy)
        assert result.adaptive.triggers == 0
        assert result.adaptive.replans == 0
        assert result.charged == static.charged

    def test_oscillation_damped(self, monkeypatch):
        """A proposal whose placement signature was already realised this
        query is refused — white-box through the trigger path, because
        a genuine A→B→A needs observations that drift back toward the
        declaration, which un-flags drift before it can flap."""
        db = build_database(scale=SCALE, seed=SEED)
        plan = _optimized(db, "adapt_drift")
        controller = AdaptiveController(
            plan.root,
            catalog=db.catalog,
            params=db.params,
            meter=db.meter,
        )
        assert controller.active
        liar = next(
            predicate for predicate in controller._movable
            if "adaptliar100" in str(predicate)
        )
        home = controller._entries[liar.pred_id]

        class Finding:
            subject = "adaptliar100"
            field = "selectivity"
            reason = "test"

            def describe(self):
                return "stub drift (q-error 9.99)"

            def as_dict(self):
                return {"subject": self.subject}

        proposals = iter([({liar: home}, "migration"),
                          ({liar: 1}, "migration")])
        monkeypatch.setattr(
            controller, "_propose", lambda observations: next(proposals)
        )
        monkeypatch.setattr(
            controller, "_estimated_gain", lambda safe, observations: 1.0
        )
        controller._trigger([Finding()], [])
        assert controller.report.replans == 1
        # Second proposal moves the predicate back to slot 1 — the
        # placement the plan started with (already in the seen set).
        controller._trigger([Finding()], [])
        report = controller.report
        assert report.replans == 1
        assert report.refusals == 1
        refusal = report.events[-1]
        assert refusal["action"] == "refused"
        assert "oscillation damped" in refusal["reason"]

    def test_plan_without_movable_predicates_disables(self):
        db = build_database(scale=5, seed=SEED)
        query = compile_query(
            db, "SELECT * FROM t1, t2 WHERE t1.a1 = t2.a1"
        )
        plan = optimize(db, query, strategy="migration").plan
        result = Executor(db, adaptive=AdaptivePolicy()).execute(plan)
        report = result.adaptive
        assert report is not None
        assert not report.active
        assert report.disabled_reason == "no movable predicates"
        assert report.replans == 0

    def test_second_trigger_converges_not_flaps(self):
        """After the drift re-plan lands, later boundaries re-confirm
        the drift but propose the already-realised placement — recorded
        as convergence, never as a second move."""
        result = _run("adapt_drift", adaptive=True)
        report = result.adaptive
        assert report.replans == 1
        assert report.converged >= 1
        assert report.refusals == 0

"""The execution flight recorder and its crash dumps.

Ring-buffer semantics, abort bookkeeping, dump document shape and
strict-JSON round trips, the ``repro postmortem`` renderer, the
executor and chaos integrations (a dead run deterministically leaves a
``FLIGHT_*.json`` on disk), and byte-stability of dumps across fresh
interpreters with differing ``PYTHONHASHSEED`` (the same subprocess
pattern as ``test_feedback_store.py``).
"""

import json
import os
import subprocess
import sys

import pytest

from repro import Executor, build_database, optimize
from repro.bench.workloads import build_workload, ensure_workload_functions
from repro.errors import ArtifactError
from repro.faults.clock import SimulatedClock
from repro.obs.flightrec import (
    DEFAULT_CAPACITY,
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    build_flight_dump,
    flight_path,
    format_postmortem,
    load_flight_dump,
    write_flight_dump,
)
from repro.obs.runtime_telemetry import RuntimeMonitor

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


@pytest.fixture(scope="module")
def db():
    database = build_database(scale=10, seed=42)
    ensure_workload_functions(database)
    return database


def _dead_run(db, workload_key="q1", monitor=None):
    """One budget-DNF execution with a recorder attached.

    The budget is 90% of the full run's charge and batches are kept
    small, so the engine records a healthy stretch of batch events
    before the meter trips — a dump with an identifiable dying
    operator, not just the abort."""
    workload = build_workload(db, workload_key)
    plan = optimize(db, workload.query, strategy="pushdown").plan
    full = Executor(db, batch_rows=8).execute(plan)
    recorder = FlightRecorder()
    result = Executor(
        db, budget=full.charged * 0.9,
        listeners=[recorder] + ([monitor] if monitor is not None else []),
        batch_rows=8,
    ).execute(plan)
    assert not result.completed
    return recorder, result


# -- ring buffer -------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_drops_oldest(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(5):
            recorder.record("batch", op="SeqScan(t3)", batch=i)
        assert recorder.recorded == 5
        events = recorder.events()
        assert len(events) == 3
        assert [e["batch"] for e in events] == [2, 3, 4]
        assert [e["seq"] for e in events] == [3, 4, 5]

    def test_capacity_floor_is_one(self):
        recorder = FlightRecorder(capacity=0)
        assert recorder.capacity == 1
        recorder.record("a")
        recorder.record("b")
        assert [e["kind"] for e in recorder.events()] == ["b"]

    def test_timestamps_come_from_simulated_clock(self):
        clock = SimulatedClock()
        recorder = FlightRecorder(clock=clock)
        recorder.record("batch")
        clock.advance(7.5)
        recorder.record("batch")
        assert [e["t"] for e in recorder.events()] == [0.0, 7.5]

    def test_note_abort_first_reason_wins(self):
        recorder = FlightRecorder()
        recorder.note_abort("budget: charged 50.0 > budget 25.0")
        recorder.note_abort("udf: later failure")
        assert recorder.tripped == "budget: charged 50.0 > budget 25.0"
        aborts = [
            e for e in recorder.events() if e["kind"] == "query.abort"
        ]
        assert len(aborts) == 1
        assert aborts[0]["reason"].startswith("budget:")

    def test_last_operator_scans_backwards(self):
        recorder = FlightRecorder()
        recorder.record("rows", op="SeqScan(t3)", rows=1)
        recorder.record("batch", op="hash-join  [t3.a1 = t10.ua1]")
        recorder.record("query.abort", reason="budget: ...")
        assert recorder.last_operator() == "hash-join  [t3.a1 = t10.ua1]"

    def test_last_operator_empty_ring(self):
        assert FlightRecorder().last_operator() == ""

    def test_flight_path_naming(self, tmp_path):
        assert flight_path(tmp_path, "q1").name == "FLIGHT_q1.json"
        assert (
            flight_path(tmp_path, "q1", suffix="seed7_pushdown").name
            == "FLIGHT_q1_seed7_pushdown.json"
        )


# -- executor integration ----------------------------------------------------


class TestExecutorIntegration:
    def test_budget_abort_trips_recorder(self, db):
        recorder, result = _dead_run(db)
        assert recorder.tripped == result.error
        assert recorder.tripped.startswith("budget:")
        assert recorder.recorded > 0
        kinds = {e["kind"] for e in recorder.events()}
        assert "query.abort" in kinds
        # Batch events identify the dying operator.
        assert "batch" in kinds
        assert recorder.last_operator() != ""

    def test_detached_run_is_recorder_free(self, db):
        workload = build_workload(db, "q1")
        plan = optimize(db, workload.query, strategy="pushdown").plan
        result = Executor(db).execute(plan)
        assert result.completed  # nothing to record, nothing recorded

    def test_healthy_run_never_trips(self, db):
        workload = build_workload(db, "q1")
        plan = optimize(db, workload.query, strategy="pushdown").plan
        recorder = FlightRecorder()
        result = Executor(db, listeners=(recorder,)).execute(plan)
        assert result.completed
        assert recorder.tripped == ""
        assert recorder.recorded > 0  # batches were still logged


# -- dump document -----------------------------------------------------------


class TestFlightDump:
    def test_document_shape(self, db):
        monitor = RuntimeMonitor()
        recorder, result = _dead_run(db, monitor=monitor)
        document = build_flight_dump(
            recorder,
            workload="q1",
            reason=result.error,
            strategy="pushdown",
            seed=42,
            result=result,
            monitor=monitor,
        )
        assert document["schema_version"] == FLIGHT_SCHEMA_VERSION
        assert document["kind"] == "flight"
        assert document["workload"] == "q1"
        assert document["reason"].startswith("budget:")
        assert document["capacity"] == DEFAULT_CAPACITY
        assert document["events_recorded"] == recorder.recorded
        assert document["last_operator"] == recorder.last_operator()
        assert document["events"][-1]["kind"] == "query.abort"
        progress = document["progress"]
        assert progress["state"] == "aborted"
        assert 0.0 <= progress["fraction"] < 1.0
        assert progress["operators"]
        assert document["metrics"]["charged"] == result.charged
        # Strict JSON end to end: no NaN, no ids, no sets.
        json.dumps(document, allow_nan=False)

    def test_round_trip(self, db, tmp_path):
        recorder, result = _dead_run(db)
        document = build_flight_dump(
            recorder, workload="q1", reason=result.error,
        )
        target = write_flight_dump(flight_path(tmp_path, "q1"), document)
        assert target.name == "FLIGHT_q1.json"
        loaded = load_flight_dump(target)
        assert loaded == json.loads(json.dumps(document))

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot read"):
            load_flight_dump(tmp_path / "nope.json")

    def test_load_rejects_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ArtifactError, match="not valid JSON"):
            load_flight_dump(bad)

    def test_load_rejects_wrong_kind(self, tmp_path):
        wrong = tmp_path / "BENCH_q1.json"
        wrong.write_text(json.dumps({"kind": "bench-run"}))
        with pytest.raises(ArtifactError, match="not a flight dump"):
            load_flight_dump(wrong)

    def test_load_rejects_future_schema(self, tmp_path):
        future = tmp_path / "FLIGHT_q1.json"
        future.write_text(
            json.dumps(
                {
                    "kind": "flight",
                    "schema_version": FLIGHT_SCHEMA_VERSION + 1,
                    "events": [],
                }
            )
        )
        with pytest.raises(ArtifactError, match="schema_version"):
            load_flight_dump(future)

    def test_load_rejects_missing_events(self, tmp_path):
        hollow = tmp_path / "FLIGHT_q1.json"
        hollow.write_text(
            json.dumps(
                {"kind": "flight",
                 "schema_version": FLIGHT_SCHEMA_VERSION}
            )
        )
        with pytest.raises(ArtifactError, match="no events"):
            load_flight_dump(hollow)


# -- postmortem renderer -----------------------------------------------------


class TestPostmortem:
    def test_renders_dead_run(self, db):
        monitor = RuntimeMonitor()
        recorder, result = _dead_run(db, monitor=monitor)
        document = build_flight_dump(
            recorder, workload="q1", reason=result.error,
            strategy="pushdown", seed=42,
            result=result, monitor=monitor,
        )
        report = format_postmortem(document)
        assert "postmortem: q1 [pushdown] seed=42" in report
        assert "reason: budget:" in report
        assert "died in:" in report
        assert "timeline (last" in report
        assert "query.abort" in report
        assert "frozen progress:" in report
        assert "meter at death: charged=" in report

    def test_ring_overflow_is_reported(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record("batch", op="SeqScan(t3)", batch=i)
        document = build_flight_dump(
            recorder, workload="q1", reason="budget: x"
        )
        report = format_postmortem(document, last=2)
        assert "10 recorded, 4 retained (6 fell off the ring)" in report
        assert "timeline (last 2 events):" in report

    def test_renderer_is_pure(self, db):
        recorder, result = _dead_run(db)
        document = build_flight_dump(
            recorder, workload="q1", reason=result.error,
        )
        assert format_postmortem(document) == format_postmortem(document)


# -- chaos integration -------------------------------------------------------


class TestChaosFlightDumps:
    def test_permanent_profile_writes_dumps(self, tmp_path):
        from repro.faults.chaos import format_chaos_report, run_chaos

        report = run_chaos(
            "q1",
            seeds=(7,),
            strategies=("pushdown", "migration"),
            profile="permanent",
            scale=4,
            flight_dir=str(tmp_path),
        )
        dead = [o for o in report.outcomes if not o.completed]
        assert dead, "a permanent fault must kill at least one run"
        for outcome in dead:
            assert outcome.flight_dump
            document = load_flight_dump(outcome.flight_dump)
            assert document["workload"] == "q1"
            assert document["strategy"] == outcome.strategy
            assert document["seed"] == 7
            assert document["reason"] == outcome.error
            rendered = format_postmortem(document)
            assert "postmortem: q1" in rendered
        rendered_report = format_chaos_report(report)
        assert "flight dump:" in rendered_report
        completed = [o for o in report.outcomes if o.completed]
        for outcome in completed:
            assert outcome.flight_dump == ""

    def test_no_flight_dir_no_dumps(self):
        from repro.faults.chaos import run_chaos

        report = run_chaos(
            "q1", seeds=(7,), strategies=("pushdown",),
            profile="permanent", scale=4,
        )
        assert all(o.flight_dump == "" for o in report.outcomes)

    def test_dumps_are_deterministic(self, tmp_path):
        from repro.faults.chaos import run_chaos

        paths = []
        for directory in ("a", "b"):
            target = tmp_path / directory
            run_chaos(
                "q1", seeds=(7,), strategies=("pushdown",),
                profile="permanent", scale=4,
                flight_dir=str(target),
            )
            paths.append(target / "FLIGHT_q1_seed7_pushdown.json")
        assert paths[0].read_bytes() == paths[1].read_bytes()


# -- determinism across interpreters -----------------------------------------

#: Kills one q1 run per batch size under a tight budget, dumps the
#: flight recording, and prints the exact file bytes — any hash-order or id
#: dependence in the dump shows up as a byte diff across hash seeds.
SCRIPT = """
import sys
from repro import Executor, build_database, optimize
from repro.bench.workloads import build_workload, ensure_workload_functions
from repro.obs.flightrec import (
    FlightRecorder, build_flight_dump, flight_path, write_flight_dump,
)
from repro.obs.runtime_telemetry import RuntimeMonitor

db = build_database(scale=10, seed=42)
ensure_workload_functions(db)
for batch_rows in (1, 8):
    workload = build_workload(db, "q1")
    plan = optimize(db, workload.query, strategy="pushdown").plan
    full = Executor(db, batch_rows=batch_rows).execute(plan)
    recorder = FlightRecorder()
    monitor = RuntimeMonitor()
    result = Executor(
        db, budget=full.charged * 0.9, listeners=(recorder, monitor),
        batch_rows=batch_rows,
    ).execute(plan)
    assert not result.completed
    document = build_flight_dump(
        recorder, workload="q1", reason=result.error,
        strategy="pushdown", seed=42, result=result, monitor=monitor,
    )
    target = write_flight_dump(
        flight_path(sys.argv[1], "q1", suffix=f"batch{batch_rows}"),
        document,
    )
    sys.stdout.write(open(target).read())
"""


def _subprocess_dump(hashseed: str, tmpdir: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = SRC
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, tmpdir],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.fixture(scope="module")
def dump_runs(tmp_path_factory):
    return [
        _subprocess_dump(seed, str(tmp_path_factory.mktemp(f"fl{i}")))
        for i, seed in enumerate(("0", "0", "1"))
    ]


def test_dump_bytes_nonempty(dump_runs):
    assert '"kind": "flight"' in dump_runs[0]
    assert '"query.abort"' in dump_runs[0]


def test_dump_bytes_stable_same_hashseed(dump_runs):
    assert dump_runs[0] == dump_runs[1]


def test_dump_bytes_stable_across_hashseeds(dump_runs):
    assert dump_runs[0] == dump_runs[2]

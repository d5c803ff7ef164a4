"""The epoch-versioned statistics feedback store.

Round trips, epoch bookkeeping, collector accuracy under caching and
containment, the opt-in ``Catalog.apply_feedback`` injection path, and
byte-stability of the persisted ``STATS_*.json`` across fresh
interpreters with differing ``PYTHONHASHSEED`` (the same subprocess
pattern as ``test_provenance_determinism.py``).
"""

import json
import math
import os
import subprocess
import sys

import pytest

from repro import Executor, build_database, optimize
from repro.bench.workloads import build_workload
from repro.errors import ArtifactError
from repro.obs.feedback import (
    STATS_SCHEMA_VERSION,
    FeedbackCollector,
    PredicateObservation,
    StatsFeedbackStore,
    format_drift_report,
    format_stats_epoch,
    predicate_fingerprint,
    stats_path,
)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


@pytest.fixture(scope="module")
def db():
    return build_database(scale=20, seed=42)


def _collect(db, workload_key="q4", strategy="pushdown", caching=False):
    workload = build_workload(db, workload_key)
    optimized = optimize(
        db, workload.query, strategy=strategy, caching=caching
    )
    collector = FeedbackCollector()
    executor = Executor(db, caching=caching, listeners=(collector,))
    result = executor.execute(optimized.plan)
    return collector, result


# -- collector ---------------------------------------------------------------


def test_collector_counts_match_execution(db):
    collector, result = _collect(db)
    observations = collector.observations()
    assert observations, "q4 must produce predicate observations"
    expensive = [obs for obs in observations if obs.is_expensive]
    assert len(expensive) == 1
    obs = expensive[0]
    # Every charged call charged the declared per-call cost exactly, so
    # the observed per-call cost reproduces the declaration.
    assert obs.charged_calls == obs.evaluated
    assert obs.observed_cost_per_call == pytest.approx(
        obs.declared_cost_per_call
    )
    assert 0.0 <= obs.observed_selectivity <= 1.0


def test_collector_sees_cache_hits_as_free(db):
    uncached, _ = _collect(db, caching=False)
    cached, _ = _collect(db, caching=True)
    hot = [o for o in uncached.observations() if o.is_expensive][0]
    cold = [o for o in cached.observations() if o.is_expensive][0]
    # Same evaluations either way, but cache hits charge nothing, so the
    # cached run observes fewer charged calls — never more.
    assert cold.evaluated == hot.evaluated
    assert cold.charged_calls <= hot.charged_calls
    assert cold.charged_cost <= hot.charged_cost


def test_fingerprint_is_content_based(db):
    workload = build_workload(db, "q4")
    again = build_workload(db, "q4")
    first = {
        predicate_fingerprint(p) for p in workload.query.predicates
    }
    second = {predicate_fingerprint(p) for p in again.query.predicates}
    # Recompiling mints fresh pred_ids, but fingerprints are content
    # hashes: structurally identical predicates collide on purpose.
    assert first == second


# -- store round trip --------------------------------------------------------


def test_store_round_trip(tmp_path, db):
    collector, _ = _collect(db)
    store = StatsFeedbackStore("q4")
    number = store.record_epoch(
        collector.observations(), strategy="pushdown", scale=20, seed=42
    )
    assert number == 1
    target = store.save(tmp_path)
    assert target == stats_path(tmp_path, "q4")
    loaded = StatsFeedbackStore.load(target)
    assert loaded.workload == "q4"
    assert loaded.epoch_numbers() == [1]
    original = store.observations_for(1)
    reloaded = loaded.observations_for(1)
    assert [o.as_dict() for o in reloaded] == [
        o.as_dict() for o in original
    ]


def test_store_epochs_are_append_only(tmp_path, db):
    collector, _ = _collect(db)
    store = StatsFeedbackStore("q4")
    store.record_epoch(
        collector.observations(), strategy="pushdown", scale=20, seed=42
    )
    target = store.save(tmp_path)
    # Load, append, save again — the first epoch survives untouched.
    second = StatsFeedbackStore.load(target)
    assert (
        second.record_epoch(
            collector.observations(),
            strategy="migration",
            scale=20,
            seed=42,
        )
        == 2
    )
    second.save(target)
    final = StatsFeedbackStore.load(target)
    assert final.epoch_numbers() == [1, 2]
    assert final.epoch(1)["strategy"] == "pushdown"
    assert final.epoch(2)["strategy"] == "migration"


def test_store_rejects_wrong_schema_version(tmp_path):
    target = tmp_path / "STATS_q4.json"
    target.write_text(
        json.dumps(
            {
                "schema_version": STATS_SCHEMA_VERSION + 1,
                "workload": "q4",
                "epochs": [],
            }
        )
    )
    with pytest.raises(ArtifactError, match="schema_version"):
        StatsFeedbackStore.load(target)


def test_store_missing_file_and_epoch_errors(tmp_path):
    with pytest.raises(ArtifactError, match="cannot read"):
        StatsFeedbackStore.load(tmp_path / "STATS_q4.json")
    store = StatsFeedbackStore("q4")
    with pytest.raises(ArtifactError, match="no epoch 3"):
        store.epoch(3)
    with pytest.raises(ArtifactError, match="no epochs recorded"):
        store.latest_epoch()


def test_store_survives_non_finite_statistics(tmp_path):
    # Corrupted declarations (the chaos corrupt-stats case) must survive
    # the strict-JSON round trip: allow_nan=False forbids bare NaN.
    obs = PredicateObservation(
        fingerprint="aa" * 8,
        predicate="f(t1.a1)",
        tables=("t1",),
        functions=("f",),
        declared_selectivity=float("nan"),
        declared_cost_per_call=float("-inf"),
        evaluated=4,
        passed=2,
    )
    store = StatsFeedbackStore("q1")
    store.record_epoch([obs], strategy="pushdown", scale=5, seed=1)
    target = store.save(tmp_path)
    back = StatsFeedbackStore.load(target).observations_for(1)[0]
    assert math.isnan(back.declared_selectivity)
    assert back.declared_cost_per_call == float("-inf")
    assert back.observed_selectivity == 0.5


# -- renderers ----------------------------------------------------------------


def test_format_stats_epoch_lists_expensive_predicates(db):
    collector, _ = _collect(db)
    store = StatsFeedbackStore("q4")
    store.record_epoch(
        collector.observations(), strategy="pushdown", scale=20, seed=42
    )
    text = format_stats_epoch("q4", store.epoch(1))
    assert "decl.sel" in text and "obs.sel" in text
    assert "costly" in text
    assert "drift:" in text


def test_format_drift_report_compares_epochs(db):
    collector, _ = _collect(db)
    store = StatsFeedbackStore("q4")
    store.record_epoch(
        collector.observations(), strategy="pushdown", scale=20, seed=42
    )
    store.record_epoch(
        collector.observations(), strategy="pushdown", scale=20, seed=42
    )
    text = format_drift_report("q4", store.epoch(1), store.epoch(2))
    assert "epoch 1" in text and "epoch 2" in text
    # Identical observations: nothing moved.
    assert "0 predicate(s) moved" in text


# -- apply_feedback -----------------------------------------------------------


def test_apply_feedback_updates_declared_stats():
    db = build_database(scale=20, seed=42)
    collector, _ = _collect(db)
    store = StatsFeedbackStore("q4")
    store.record_epoch(
        collector.observations(), strategy="pushdown", scale=20, seed=42
    )
    observed = [
        o for o in store.observations_for(1) if o.is_expensive
    ][0]
    name = observed.functions[0]
    before = db.catalog.functions.get(name).selectivity
    changed = db.catalog.apply_feedback(store)
    function = db.catalog.functions.get(name)
    assert changed >= 1
    assert function.selectivity == pytest.approx(
        observed.observed_selectivity
    )
    assert function.selectivity != before
    # Recompiled predicates pick up the injected statistics.
    recompiled = build_workload(db, "q4").query
    expensive = [p for p in recompiled.predicates if p.is_expensive][0]
    assert expensive.selectivity == pytest.approx(function.selectivity)


def test_apply_feedback_skips_invalid_and_multi_function():
    db = build_database(scale=5, seed=42)
    observations = [
        # Invalid observed selectivity (no evaluations) — skipped.
        PredicateObservation(
            fingerprint="01" * 8, predicate="a", tables=(),
            functions=("costly100",), declared_selectivity=0.5,
            declared_cost_per_call=100.0, evaluated=0,
        ),
        # Multi-function conjunct — unattributable, skipped.
        PredicateObservation(
            fingerprint="02" * 8, predicate="b", tables=(),
            functions=("costly100", "cheap5"),
            declared_selectivity=0.5, declared_cost_per_call=105.0,
            evaluated=10, passed=5,
        ),
        # Unknown function — skipped.
        PredicateObservation(
            fingerprint="03" * 8, predicate="c", tables=(),
            functions=("nosuchfunction",), declared_selectivity=0.5,
            declared_cost_per_call=1.0, evaluated=10, passed=5,
        ),
    ]
    store = StatsFeedbackStore("q1")
    store.record_epoch(observations, strategy="pushdown", scale=5, seed=1)
    before = {
        name: (
            db.catalog.functions.get(name).selectivity,
            db.catalog.functions.get(name).cost_per_call,
        )
        for name in db.catalog.functions.names()
    }
    assert db.catalog.apply_feedback(store) == 0
    after = {
        name: (
            db.catalog.functions.get(name).selectivity,
            db.catalog.functions.get(name).cost_per_call,
        )
        for name in db.catalog.functions.names()
    }
    assert before == after


# -- determinism across interpreters -----------------------------------------

#: Records one epoch per workload into a store and prints the exact file
#: bytes — any hash-order dependence in the store shows up here.
SCRIPT = """
import sys
from repro import Executor, build_database, optimize
from repro.bench.workloads import build_workload
from repro.obs.feedback import FeedbackCollector, StatsFeedbackStore

db = build_database(scale=5, seed=42)
for name in ("q1", "q4"):
    workload = build_workload(db, name)
    optimized = optimize(db, workload.query, strategy="pushdown")
    collector = FeedbackCollector()
    executor = Executor(db, listeners=(collector,))
    result = executor.execute(optimized.plan, instrument=True)
    store = StatsFeedbackStore(name)
    store.record_epoch(
        collector.observations(),
        strategy="pushdown",
        scale=5,
        seed=42,
        operators=[s.as_dict() for s in result.node_stats.values()],
    )
    target = store.save(sys.argv[1])
    sys.stdout.write(open(target).read())
"""


def _run(hashseed: str, tmpdir: str) -> str:
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
def runs(tmp_path_factory):
    return [
        _run(seed, str(tmp_path_factory.mktemp(f"stats{i}")))
        for i, seed in enumerate(("0", "0", "1"))
    ]


def test_store_bytes_nonempty(runs):
    assert '"stats-feedback"' in runs[0]
    assert '"epochs"' in runs[0]


def test_store_bytes_stable_across_identical_runs(runs):
    assert runs[0] == runs[1]


def test_store_bytes_stable_across_hash_seeds(runs):
    assert runs[0] == runs[2]

"""Injected cardinalities (``--inject-cards``) and mid-query epochs.

Satellite guarantees of the adaptive PR: exact catalog lies can be
installed deterministically through the one sanctioned statistics
mutation path (``Catalog.apply_feedback``), and the mid-query feedback
epochs an adaptive re-plan snapshots never collide with the end-of-run
epochs the stats CLI records.
"""

import json

import pytest

from repro import build_database
from repro.__main__ import main
from repro.adaptive import AdaptivePolicy, load_injected_cards
from repro.adaptive.inject import InjectedCardinalityStore
from repro.adaptive.workloads import (
    REALIZED_SELECTIVITY,
    build_adapt_workload,
)
from repro.errors import ArtifactError
from repro.exec import Executor
from repro.obs.artifacts import plan_fingerprint
from repro.obs.feedback import (
    FeedbackCollector,
    StatsFeedbackStore,
    predicate_fingerprint,
)
from repro.optimizer import optimize


def _write(tmp_path, document, name="cards.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


def _cards(cards):
    return {"schema_version": 1, "kind": "injected-cards", "cards": cards}


class TestStoreValidation:
    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot read"):
            load_injected_cards(tmp_path / "absent.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ArtifactError, match="not valid JSON"):
            load_injected_cards(path)

    def test_wrong_schema_version(self, tmp_path):
        document = _cards({"f": {"selectivity": 0.5}})
        document["schema_version"] = 99
        with pytest.raises(ArtifactError, match="schema_version"):
            load_injected_cards(_write(tmp_path, document))

    def test_empty_cards_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="non-empty 'cards'"):
            load_injected_cards(_write(tmp_path, _cards({})))

    def test_card_must_be_object(self):
        with pytest.raises(ArtifactError, match="not an object"):
            InjectedCardinalityStore.from_dict(_cards({"f": 0.5}))

    def test_rows_without_input_rows(self):
        with pytest.raises(ArtifactError, match="input_rows"):
            InjectedCardinalityStore.from_dict(_cards({"f": {"rows": 10}}))


class TestCardShapes:
    def test_direct_selectivity(self):
        store = InjectedCardinalityStore.from_dict(
            _cards({"costly100": {"selectivity": 0.25}})
        )
        (obs,) = store.observations_for()
        assert obs.functions == ("costly100",)
        assert obs.observed_selectivity == 0.25
        assert obs.evaluated >= 1
        assert obs.charged_calls == 0  # no cost injected → cost untouched

    def test_rows_over_input_rows(self):
        store = InjectedCardinalityStore.from_dict(
            _cards({"f": {"rows": 120, "input_rows": 480,
                          "cost_per_call": 50.0}})
        )
        (obs,) = store.observations_for()
        assert obs.observed_selectivity == 0.25
        assert obs.evaluated == 480
        assert obs.charged_calls == 1
        assert obs.observed_cost_per_call == 50.0

    def test_fingerprint_binding_and_unmatched_warning(self):
        db = build_database(scale=20, seed=42)
        query = build_adapt_workload(db, "adapt_drift").query
        liar = next(
            predicate for predicate in query.predicates
            if "adaptliar100" in str(predicate)
        )
        fingerprint = predicate_fingerprint(liar)
        stale = "0" * 16  # fingerprint-shaped, matches nothing
        store = InjectedCardinalityStore.from_dict(
            _cards({
                fingerprint: {"selectivity": 0.4},
                stale: {"selectivity": 0.9},
            })
        ).bind(query.predicates)
        by_key = {obs.key: obs for obs in store.observations_for()}
        assert by_key[fingerprint].functions == ("adaptliar100",)
        assert by_key[stale].functions == (stale,)
        assert store.unmatched == [stale]


class TestApplyFeedback:
    def test_injection_recovers_the_honest_plan(self):
        """Injecting the truth about the liar must flip the drift plan
        to the honest scenario's shape — same mechanism, no execution."""
        honest_db = build_database(scale=100, seed=42)
        honest_plan = optimize(
            honest_db,
            build_adapt_workload(honest_db, "adapt_honest").query,
            strategy="migration",
        ).plan

        db = build_database(scale=100, seed=42)
        build_adapt_workload(db, "adapt_drift")
        store = InjectedCardinalityStore.from_dict(
            _cards({"adaptliar100": {
                "selectivity": REALIZED_SELECTIVITY,
            }})
        )
        changed = db.catalog.apply_feedback(store)
        assert changed >= 1
        corrected_plan = optimize(
            db,
            build_adapt_workload(db, "adapt_drift").query,
            strategy="migration",
        ).plan
        assert plan_fingerprint(corrected_plan) == plan_fingerprint(
            honest_plan
        )

    def test_unregistered_function_cards_are_inert(self):
        db = build_database(scale=5, seed=42)
        store = InjectedCardinalityStore.from_dict(
            _cards({"no_such_udf": {"selectivity": 0.1}})
        )
        assert db.catalog.apply_feedback(store) == 0


class TestInjectCardsCli:
    def test_run_with_injected_truth_plans_honest(self, capsys, tmp_path):
        path = _write(
            tmp_path,
            _cards({"adaptliar100": {
                "selectivity": REALIZED_SELECTIVITY,
            }}),
        )
        code = main([
            "--workload", "adapt_drift", "--scale", "100",
            "--inject-cards", str(path), "--explain-only",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "injected cards: 1 statistic(s) updated" in captured.err
        # The truth pushes the liar down onto its scan — the honest shape.
        assert "filter: adaptliar100" in captured.out

    def test_unmatched_fingerprint_warns(self, capsys, tmp_path):
        path = _write(
            tmp_path, _cards({"0" * 16: {"selectivity": 0.5}})
        )
        code = main([
            "--workload", "q1", "--scale", "5",
            "--inject-cards", str(path), "--explain-only",
        ])
        err = capsys.readouterr().err
        assert code == 0
        assert "matches none of this query's predicates" in err

    def test_bad_file_is_a_clean_error(self, capsys, tmp_path):
        code = main([
            "--workload", "q1", "--scale", "5",
            "--inject-cards", str(tmp_path / "absent.json"),
        ])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err


class TestEpochSequencing:
    def _observations(self, selectivity=0.5):
        db = build_database(scale=5, seed=42)
        query = build_adapt_workload(db, "adapt_honest").query
        plan = optimize(db, query, strategy="pushdown").plan
        collector = FeedbackCollector()
        Executor(db, listeners=(collector,)).execute(plan)
        return collector.observations()

    def test_mid_query_epochs_group_under_the_run_number(self):
        store = StatsFeedbackStore("adapt_drift")
        observations = self._observations()
        store.record_epoch(
            observations, strategy="migration", scale=5, seed=42,
            sequence=1,
        )
        store.record_epoch(
            observations, strategy="migration", scale=5, seed=42,
            sequence=2,
        )
        number = store.record_epoch(
            observations, strategy="migration", scale=5, seed=42
        )
        assert number == 1
        assert store.epoch_numbers() == [1]
        snapshots = store.mid_query_epochs(1)
        assert [epoch["sequence"] for epoch in snapshots] == [1, 2]
        assert all(epoch["epoch"] == 1 for epoch in snapshots)
        assert store.latest_epoch()["sequence"] == 0

    def test_next_run_does_not_collide_with_snapshots(self):
        store = StatsFeedbackStore("adapt_drift")
        observations = self._observations()
        store.record_epoch(
            observations, strategy="migration", scale=5, seed=42,
            sequence=1,
        )
        first = store.record_epoch(
            observations, strategy="migration", scale=5, seed=42
        )
        second = store.record_epoch(
            observations, strategy="migration", scale=5, seed=42
        )
        assert (first, second) == (1, 2)
        assert store.epoch_numbers() == [1, 2]
        assert store.epoch(1, sequence=1)["sequence"] == 1
        with pytest.raises(ArtifactError, match="sequence 1"):
            store.epoch(2, sequence=1)

    def test_pre_sequence_stores_read_as_end_of_run(self):
        # Documents written before sequences existed carry no key.
        store = StatsFeedbackStore(
            "q1",
            epochs=[{"epoch": 1, "strategy": "pushdown",
                     "observations": {}}],
        )
        assert store.epoch_numbers() == [1]
        assert store.latest_epoch()["epoch"] == 1
        assert store.mid_query_epochs(1) == []

    def test_adaptive_execution_snapshots_mid_query_epoch(self):
        """The executor wiring: a drift re-plan records its backing
        observations as a sequence-numbered epoch that groups with the
        end-of-run epoch recorded afterwards."""
        db = build_database(scale=100, seed=42)
        query = build_adapt_workload(db, "adapt_drift").query
        plan = optimize(db, query, strategy="migration").plan
        store = StatsFeedbackStore("adapt_drift")
        collector = FeedbackCollector()
        result = Executor(
            db,
            adaptive=AdaptivePolicy(),
            listeners=(collector,),
            adaptive_stats_store=store,
            adaptive_stats_meta={
                "strategy": "migration", "scale": 100, "seed": 42,
            },
        ).execute(plan)
        assert result.adaptive.replans == 1
        assert store.epoch_numbers() == []  # nothing end-of-run yet
        (snapshot,) = store.mid_query_epochs(1)
        assert snapshot["sequence"] == 1
        assert snapshot["strategy"] == "migration"
        number = store.record_epoch(
            collector.observations(), strategy="migration",
            scale=100, seed=42,
        )
        assert number == 1
        assert store.latest_epoch()["sequence"] == 0

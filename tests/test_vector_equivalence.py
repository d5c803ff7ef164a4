"""Differential property suite: the executor against the reference tree.

The program runs every plan batch-at-a-time; ``reference_executor.py``
keeps the tuple-at-a-time iterator tree as an oracle. Every workload ×
strategy × data seed must produce the identical row multiset under
both, with the same completion verdict and — for completed runs — the
same charged totals and cache statistics (under the default unbounded
cache, whose hit/miss history is evaluation-order independent in
totals). Budget aborts are held to the budget frontier: at budgets
below, at and above each run's completion boundary, both sides reach
the same verdict, and a DNF's charge lands within one charge quantum of
the reference's. The chaos invariants must also survive batching: lossy
containment policies keep their subset/superset relationship to the
fault-free oracle.
"""

from collections import Counter

import pytest

from repro import Executor, build_database, optimize
from repro.bench.harness import DEFAULT_STRATEGIES
from repro.bench.workloads import build_workload, ensure_workload_functions
from repro.obs.artifacts import plan_fingerprint
from tests.reference_executor import charge_quantum, run_reference

QUERY_WORKLOADS = ("q1", "q2", "q3", "q4", "q5")
SEEDS = (7, 11, 13)
SCALE = 12


def _databases():
    """One database per seed, shared across the parametrized tests."""
    databases = {}
    for seed in SEEDS:
        db = build_database(scale=SCALE, seed=seed)
        ensure_workload_functions(db)
        databases[seed] = db
    return databases


_DATABASES = _databases()


def _run(db, plan, budget, **kwargs):
    return Executor(db, budget=budget, **kwargs).execute(plan)


def _budgets(full: float, quantum: float) -> list[float]:
    """Budgets below, at and above a run's completion boundary: two
    mid-run aborts, a hair under the total, the total itself (the check
    is strictly greater-than, so this completes) and one quantum over."""
    return [
        full * 0.1,
        full * 0.5,
        full - 1e-6,
        full,
        full + quantum,
    ]


class TestRowVectorEquivalence:
    @pytest.mark.parametrize("workload_key", QUERY_WORKLOADS)
    @pytest.mark.parametrize("strategy", DEFAULT_STRATEGIES)
    def test_identical_multisets_all_seeds(self, workload_key, strategy):
        for seed in SEEDS:
            db = _DATABASES[seed]
            workload = build_workload(db, workload_key)
            plan = optimize(
                db, workload.query, strategy=strategy
            ).plan
            reference = run_reference(db, plan, budget=workload.budget)
            vector = _run(db, plan, workload.budget)
            label = f"{workload_key}/{strategy}/seed={seed}"
            assert vector.completed == reference.completed, label
            if not reference.completed:
                assert abs(vector.charged - reference.charged) <= (
                    charge_quantum(db, plan)
                ), label
                continue
            assert Counter(vector.rows) == Counter(reference.rows), label
            assert vector.charged == pytest.approx(reference.charged), label
            for metric in (
                "io_charged",
                "function_charged",
                "function_calls",
                "cpu_charged",
            ):
                assert vector.metrics[metric] == pytest.approx(
                    reference.metrics[metric]
                ), f"{label}:{metric}"

    @pytest.mark.parametrize("caching_kwargs", [
        {"caching": True},
        {"caching": True, "cache_mode": "function"},
    ])
    def test_cached_runs_match(self, caching_kwargs):
        db = _DATABASES[7]
        workload = build_workload(db, "q4")
        plan = optimize(
            db, workload.query, strategy="migration", caching=True
        ).plan
        reference = run_reference(
            db, plan, budget=workload.budget, **caching_kwargs
        )
        vector = _run(db, plan, workload.budget, **caching_kwargs)
        assert Counter(vector.rows) == Counter(reference.rows)
        assert vector.charged == pytest.approx(reference.charged)
        assert vector.cache_stats.hits == reference.cache.stats.hits
        assert vector.cache_stats.misses == reference.cache.stats.misses

    def test_odd_batch_sizes_change_nothing(self):
        db = _DATABASES[11]
        workload = build_workload(db, "q5")
        plan = optimize(db, workload.query, strategy="pushdown").plan
        reference = run_reference(db, plan, budget=workload.budget)
        for batch_rows in (1, 7, 64, 100_000):
            vector = Executor(
                db,
                budget=workload.budget,
                batch_rows=batch_rows,
            ).execute(plan)
            assert Counter(vector.rows) == Counter(reference.rows), batch_rows
            assert vector.charged == pytest.approx(reference.charged)


class TestDnfParity:
    """Budget aborts land where the reference tree's do (ROADMAP's budget
    frontier): same verdict at every budget, and a DNF's charge within
    one charge quantum of the reference's."""

    @pytest.mark.parametrize("workload_key", QUERY_WORKLOADS)
    @pytest.mark.parametrize("strategy", DEFAULT_STRATEGIES)
    def test_abort_within_one_quantum(self, workload_key, strategy):
        for seed in SEEDS:
            db = _DATABASES[seed]
            workload = build_workload(db, workload_key)
            plan = optimize(db, workload.query, strategy=strategy).plan
            quantum = charge_quantum(db, plan)
            full = run_reference(db, plan)
            for budget in _budgets(full.charged, quantum):
                reference = run_reference(db, plan, budget=budget)
                vector = _run(db, plan, budget)
                label = (
                    f"{workload_key}/{strategy}/seed={seed}/budget={budget}"
                )
                assert vector.completed == reference.completed, label
                if reference.completed:
                    assert vector.charged == pytest.approx(
                        reference.charged
                    ), label
                    assert Counter(vector.rows) == Counter(
                        reference.rows
                    ), label
                    continue
                assert vector.charged > budget, label
                assert abs(vector.charged - reference.charged) <= quantum, (
                    f"{label}: {vector.charged} vs {reference.charged}"
                )


class TestRowPathNeutrality:
    def test_vector_runs_leave_plans_untouched(self):
        """Running the executor must not perturb the catalog or
        statistics the planner reads: fingerprints before and after a
        run are byte-identical."""
        db = _DATABASES[13]
        workload = build_workload(db, "q4")
        before = plan_fingerprint(
            optimize(db, workload.query, strategy="migration").plan
        )
        plan = optimize(db, workload.query, strategy="migration").plan
        _run(db, plan, workload.budget)
        after = plan_fingerprint(
            optimize(
                db, build_workload(db, "q4").query, strategy="migration"
            ).plan
        )
        assert before == after


class TestChaosUnderBatching:
    """Containment's lossy policies keep their oracle relationship when
    predicate evaluation happens batch-at-a-time."""

    @pytest.mark.parametrize("policy,allowed", [
        ("skip-row", {"equal", "subset"}),
        ("assume-fail", {"equal", "subset"}),
        ("assume-pass", {"equal", "superset"}),
    ])
    def test_policy_relation_survives_batching(self, policy, allowed):
        from repro.faults.chaos import run_chaos

        report = run_chaos(
            "q1",
            seeds=(7,),
            strategies=("pushdown", "migration"),
            policy=policy,
            scale=4,
        )
        assert report.passed, report.violations
        for outcome in report.outcomes:
            if outcome.completed:
                assert outcome.rows_vs_oracle in allowed, (
                    policy,
                    outcome.strategy,
                    outcome.rows_vs_oracle,
                )

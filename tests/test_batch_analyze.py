"""Batch-granular EXPLAIN ANALYZE and the per-node actuals parity
contract.

The engine's batch instrumentation must *add* information (batches,
per-batch row histograms, selection-vector density, kernel self-time,
cache hit rates) without perturbing the per-node actuals: per-operator
row counts, I/O cost, function cost, and cache hits do not depend on
how the meter deltas were bracketed. One-row batches bracket every
charge the way a tuple-at-a-time pipeline does, so they must report
bit-identical actuals to the default batch size across every workload
× strategy × seed, and the root's inclusive actuals must add up to what
the reference tree (``reference_executor.py``) charges for the whole
run. Join CPU is the one documented exception — it is charged in bulk
per batch (``units × n``), so per-node ``cpu_charged`` (and through it
``charged``) can differ in the last float bit; the suite pins that
difference to ≤ a few ULPs instead of letting it drift.
"""

import math
import re

import pytest

from repro import Executor, build_database, optimize
from repro.bench.harness import DEFAULT_STRATEGIES
from repro.bench.workloads import build_workload, ensure_workload_functions
from repro.plan.display import explain_analyze
from repro.storage.columnar import DEFAULT_BATCH_ROWS
from tests.reference_executor import run_reference

QUERY_WORKLOADS = ("q1", "q2", "q3", "q4", "q5")
SEEDS = (7, 11, 13)
SCALE = 12

#: Relative bound for the CPU bulk-charging rounding exception — ~50×
#: the worst observed drift (2.2e-15), still ~1e3× tighter than any
#: real regression.
CPU_REL_TOL = 1e-13


def _databases():
    databases = {}
    for seed in SEEDS:
        db = build_database(scale=SCALE, seed=seed)
        ensure_workload_functions(db)
        databases[seed] = db
    return databases


_DATABASES = _databases()


def _instrumented(db, plan, budget, batch_rows=DEFAULT_BATCH_ROWS):
    return Executor(db, budget=budget, batch_rows=batch_rows).execute(
        plan, instrument=True
    )


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=CPU_REL_TOL, abs_tol=1e-9)


class TestExplainAnalyzeParity:
    """Per-operator actuals, one-row batches vs the default batch size."""

    @pytest.mark.parametrize("workload_key", QUERY_WORKLOADS)
    @pytest.mark.parametrize("strategy", DEFAULT_STRATEGIES)
    def test_per_operator_actuals_match(self, workload_key, strategy):
        for seed in SEEDS:
            db = _DATABASES[seed]
            workload = build_workload(db, workload_key)
            plan = optimize(db, workload.query, strategy=strategy).plan
            row = _instrumented(db, plan, workload.budget, batch_rows=1)
            vector = _instrumented(db, plan, workload.budget)
            label = f"{workload_key}/{strategy}/seed={seed}"
            assert vector.completed == row.completed, label
            if not row.completed:
                continue
            # The root's inclusive actuals are the whole run's meter.
            reference = run_reference(db, plan, budget=workload.budget)
            root = vector.node_stats[id(plan.root)]
            assert root.rows_out == len(reference.rows), label
            assert root.io_charged == reference.metrics["io_charged"]
            assert root.function_charged == (
                reference.metrics["function_charged"]
            ), label
            assert _close(root.charged, reference.charged), label
            assert set(vector.node_stats) == set(row.node_stats), label
            for key, expected in row.node_stats.items():
                actual = vector.node_stats[key]
                # Bit-identical by construction: counts and every cost
                # component whose charges are granularity-independent.
                assert actual.rows_out == expected.rows_out, label
                assert actual.io_charged == expected.io_charged, label
                assert (
                    actual.function_charged == expected.function_charged
                ), label
                assert actual.cache_hits == expected.cache_hits, label
                # The CPU bulk-charging exception, pinned to ULP noise.
                assert _close(
                    actual.cpu_charged, expected.cpu_charged
                ), f"{label}: cpu {actual.cpu_charged!r} vs {expected.cpu_charged!r}"
                assert _close(
                    actual.charged, expected.charged
                ), f"{label}: charged {actual.charged!r} vs {expected.charged!r}"

    @pytest.mark.parametrize("workload_key", QUERY_WORKLOADS)
    def test_whole_query_totals_bit_identical(self, workload_key):
        """The dump-visible roll-ups never differ from the reference
        tree's at all: the per-batch bulk charges add up to the same
        meter totals."""
        for seed in SEEDS:
            db = _DATABASES[seed]
            workload = build_workload(db, workload_key)
            plan = optimize(db, workload.query, strategy="pushdown").plan
            row = run_reference(db, plan, budget=workload.budget)
            vector = _instrumented(db, plan, workload.budget)
            if not row.completed:
                continue
            label = f"{workload_key}/seed={seed}"
            assert vector.charged == row.charged, label
            for metric in (
                "io_charged", "function_charged", "function_calls",
            ):
                assert (
                    vector.metrics[metric] == row.metrics[metric]
                ), f"{label}:{metric}"

    def test_node_charged_is_self_consistent(self):
        """``charged`` is derived, so total == breakdown exactly."""
        db = _DATABASES[7]
        workload = build_workload(db, "q4")
        plan = optimize(db, workload.query, strategy="migration").plan
        for batch_rows in (1, DEFAULT_BATCH_ROWS):
            result = _instrumented(db, plan, workload.budget, batch_rows)
            for stats in result.node_stats.values():
                assert stats.charged == (
                    stats.io_charged
                    + stats.cpu_charged
                    + stats.function_charged
                )


class TestBatchStats:
    """The batch-granular companion data."""

    def test_uninstrumented_vector_run_skips_batch_stats(self):
        db = _DATABASES[7]
        workload = build_workload(db, "q4")
        plan = optimize(db, workload.query, strategy="pushdown").plan
        result = Executor(db, budget=workload.budget).execute(plan)
        assert result.batch_stats is None
        assert result.node_stats is None

    def test_vector_batch_stats_shape(self):
        db = _DATABASES[7]
        workload = build_workload(db, "q4")
        plan = optimize(db, workload.query, strategy="pushdown").plan
        result = _instrumented(db, plan, workload.budget)
        assert result.batch_stats
        for key, stats in result.batch_stats.items():
            node_stats = result.node_stats[key]
            # Emitted batches carry exactly the node's output rows.
            assert int(stats.rows_out.finite_sum) == node_stats.rows_out
            assert stats.batches == stats.rows_out.count
            if stats.rows_out.count:
                assert stats.rows_out.minimum >= 1.0

    def test_single_predicate_density(self):
        """Every placed predicate sees the full chain: rows_in equals
        the rows that entered its node's filter chain."""
        db = _DATABASES[7]
        workload = build_workload(db, "q4")
        plan = optimize(db, workload.query, strategy="pushdown").plan
        result = _instrumented(db, plan, workload.budget)
        observed = [
            stats for stats in result.batch_stats.values()
            if stats.predicates
        ]
        assert observed, "q4/pushdown must place predicates"
        for stats in observed:
            for pstats in stats.predicates:
                assert pstats.rows_in == stats.chain_rows
                assert pstats.rows_out <= pstats.rows_in

    def test_filter_chain_density_decays(self):
        """Chain order on a two-predicate node: the second predicate's
        rows_in is the first one's rows_out (selection-vector decay).

        The planners place one predicate per node on the bench
        workloads, so the chain is built by hoisting q4's cheap
        predicate up next to the pulled-up expensive one — every table
        is in the top join's scope, so the plan stays valid."""
        db = _DATABASES[7]
        workload = build_workload(db, "q4")
        plan = optimize(db, workload.query, strategy="pullup").plan
        root = plan.root if hasattr(plan, "root") else plan
        donors = [
            node for node in root.walk()
            if node is not root and node.filters
        ]
        assert donors, "pullup q4 must keep a cheap predicate below"
        cheap = donors[0].filters.pop()
        assert root.filters, "pullup q4 must hoist the expensive one"
        root.filters.append(cheap)
        result = _instrumented(db, plan, workload.budget)
        stats = result.batch_stats[id(root)]
        assert len(stats.predicates) == 2
        first, second = stats.predicates
        assert first.rows_in == stats.chain_rows
        assert second.rows_in == first.rows_out
        assert second.rows_out <= second.rows_in
        assert second.rows_out == result.node_stats[id(root)].rows_out

    def test_predicate_cache_hit_rates(self):
        db = _DATABASES[7]
        workload = build_workload(db, "q4")
        plan = optimize(
            db, workload.query, strategy="migration", caching=True
        ).plan
        result = Executor(
            db, budget=workload.budget, caching=True
        ).execute(plan, instrument=True)
        observed = [
            pstats
            for stats in result.batch_stats.values()
            for pstats in stats.predicates
            if pstats.cache_hits or pstats.cache_misses
        ]
        assert observed, "a cached q4 run must see cache traffic"
        for pstats in observed:
            assert 0.0 <= pstats.cache_hit_rate <= 1.0

    def test_as_dict_is_strict_json(self):
        import json

        db = _DATABASES[7]
        workload = build_workload(db, "q1")
        plan = optimize(db, workload.query, strategy="pushdown").plan
        result = _instrumented(db, plan, workload.budget)
        for stats in result.batch_stats.values():
            json.dumps(stats.as_dict(), allow_nan=False)


class TestExplainAnalyzeRendering:
    def _outputs(self, workload_key="q4", strategy="pushdown"):
        db = _DATABASES[7]
        workload = build_workload(db, workload_key)
        plan = optimize(db, workload.query, strategy=strategy).plan
        row = _instrumented(db, plan, workload.budget, batch_rows=1)
        vector = _instrumented(db, plan, workload.budget)
        row_text = explain_analyze(plan, row.node_stats)
        vector_text = explain_analyze(
            plan, vector.node_stats, batch_stats=vector.batch_stats
        )
        return row_text, vector_text

    def test_vector_gains_batch_lines(self):
        row_text, vector_text = self._outputs()
        assert "· batches=" not in row_text
        assert "· batches=" in vector_text
        assert "rows/batch in=" in vector_text
        assert re.search(r"density \d\.\d{3}→\d\.\d{3}", vector_text)
        assert "kernel=" in vector_text
        assert re.search(r"sel=\d\.\d{3}", vector_text)

    def test_row_actuals_render_identically(self):
        """The per-node figures — the parity-gated part of the output —
        are the same characters whether or not the batch layer is
        rendered, and whatever the batch size."""
        row_text, vector_text = self._outputs()
        pattern = re.compile(r"act rows=\d+ charged=[\d.]+")
        assert pattern.findall(row_text) == pattern.findall(vector_text)

    def test_cache_hit_rate_annotation(self):
        db = _DATABASES[7]
        workload = build_workload(db, "q4")
        plan = optimize(
            db, workload.query, strategy="migration", caching=True
        ).plan
        result = Executor(
            db, budget=workload.budget, caching=True
        ).execute(plan, instrument=True)
        text = explain_analyze(
            plan, result.node_stats, batch_stats=result.batch_stats
        )
        assert re.search(r"cache_hit=\d+\.\d%", text)


class TestMonitorDensityRefinement:
    """Satellite: vector batch densities feed ``repro top`` progress."""

    def test_filter_density_collected(self):
        from repro.obs.runtime_telemetry import RuntimeMonitor

        db = _DATABASES[7]
        workload = build_workload(db, "q4")
        plan = optimize(db, workload.query, strategy="pushdown").plan
        monitor = RuntimeMonitor()
        result = Executor(
            db, budget=workload.budget, listeners=(monitor,),
        ).execute(plan)
        assert result.completed
        assert monitor.state == "completed"
        assert monitor.progress() == 1.0
        assert monitor.filter_density, (
            "vector filter chains must report per-batch densities"
        )
        for rows_in, rows_out in monitor.filter_density.values():
            assert 0 <= rows_out <= rows_in

    def test_density_refines_estimates(self):
        """A mis-declared chain selectivity is corrected from joint
        observed density, batch by batch — not only at per-predicate
        power-of-two milestones."""
        from repro.cost.model import CostModel
        from repro.obs.runtime_telemetry import (
            REFINE_MIN_EVALS,
            RuntimeMonitor,
            WORK_FLOOR,
        )

        monitor = RuntimeMonitor()
        db = _DATABASES[7]
        workload = build_workload(db, "q4")
        plan = optimize(db, workload.query, strategy="pushdown").plan
        monitor.attach(
            plan.root if hasattr(plan, "root") else plan,
            CostModel(db.catalog, db.params),
        )
        # Pick the operator with the most declared work — refinement has
        # room to shrink its estimate without hitting WORK_FLOOR.
        node_key, operator = max(
            monitor.operators.items(),
            key=lambda item: item[1].declared_rows,
        )
        declared = operator.estimated_rows
        assert declared > WORK_FLOOR
        # Observed density 10% of declared selectivity 0.5: the joint
        # ratio shrinks the node's estimate (within the clamp band).
        total = max(REFINE_MIN_EVALS, 64)
        monitor.on_filter(node_key, [], total, total // 20, 0.5, ())
        assert operator.estimated_rows < declared
        assert operator.estimated_rows >= WORK_FLOOR

    def test_refinement_ignores_bogus_declarations(self):
        from repro.cost.model import CostModel
        from repro.obs.runtime_telemetry import (
            REFINE_MIN_EVALS,
            RuntimeMonitor,
        )

        monitor = RuntimeMonitor()
        db = _DATABASES[7]
        workload = build_workload(db, "q1")
        plan = optimize(db, workload.query, strategy="pushdown").plan
        monitor.attach(
            plan.root if hasattr(plan, "root") else plan,
            CostModel(db.catalog, db.params),
        )
        node_key, operator = max(
            monitor.operators.items(),
            key=lambda item: item[1].declared_rows,
        )
        before = operator.estimated_rows
        total = max(REFINE_MIN_EVALS, 64)
        monitor.on_filter(
            node_key, [], total, total // 2, float("nan"), ()
        )
        monitor.on_filter(node_key, [], 0, 0, 0.5, ())
        assert operator.estimated_rows == before

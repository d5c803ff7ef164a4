"""Tests of the benchmark's own logic: answer checks, the p90 sample
rule, host-speed scaling, span self times and the UDF timing wrapper."""

from __future__ import annotations

from dataclasses import replace

import pytest

from perfbench import checks, hostspeed, stats
from perfbench.bench import Bench, end_to_end_metrics
from perfbench.trace import SpanRecorder, self_time_by_name, wrap_udfs
from perfbench import workloads
from perfbench.workloads import Spec, build_targets

from repro.catalog.functions import FunctionRegistry


def tiny_spec(**overrides) -> Spec:
    spec = Spec(
        name="tiny",
        scale=10,
        queries=("q1",),
        strategies=("pushdown", "pullup"),
    )
    return replace(spec, **overrides)


def checked_bench(spec: Spec) -> Bench:
    bench = Bench(spec, build_targets(spec, 7), SpanRecorder())
    bench.check_pass()
    return bench


def failed_ops(bench: Bench) -> set[str]:
    return {op_id for op_id, _ in bench.failures}


# -- answer checks -------------------------------------------------------


def test_clean_workload_has_no_failures():
    bench = checked_bench(tiny_spec())
    bench.run_pass("0", traced=False)
    assert bench.failures == []
    assert bench.attempted == 4


def test_wrong_row_multiset_fails_the_operation(monkeypatch):
    real = workloads.Executor.execute
    calls = []

    def drop_a_row(self, plan, **kwargs):
        result = real(self, plan, **kwargs)
        calls.append(1)
        if len(calls) == 2:  # the second strategy's execution
            result.rows = result.rows[:-1]
        return result

    monkeypatch.setattr(workloads.Executor, "execute", drop_a_row)
    bench = checked_bench(tiny_spec(strategies=("pushdown", "pullup", "ldl")))
    assert failed_ops(bench) == {"verify:q1/pullup"}


def test_projection_makes_column_order_irrelevant():
    class Scope:
        def __init__(self, columns):
            self.columns = columns

        def slot(self, table, attribute):
            return self.columns.index((table, attribute))

    ab = Scope([("t3", "a"), ("t10", "b")])
    ba = Scope([("t10", "b"), ("t3", "a")])
    rows = [(1, 2), (3, 4), (1, 2)]
    swapped = [(b, a) for a, b in reversed(rows)]
    assert checks.row_digest(rows, ab) == checks.row_digest(swapped, ba)
    assert checks.row_digest(rows, ab) != checks.row_digest(rows[:2], ab)


def test_unexpected_dnf_fails_but_allowed_dnf_does_not(monkeypatch):
    spec = tiny_spec()
    targets = build_targets(spec, 7)
    for target in targets:
        target.budget = 1.0
    bench = Bench(spec, targets, SpanRecorder())
    bench.check_pass()
    assert failed_ops(bench) == {"verify:q1/pushdown", "verify:q1/pullup"}

    allowed = replace(spec, allowed_dnf=frozenset({"q1/pullup"}))
    bench = Bench(allowed, targets, SpanRecorder())
    bench.check_pass()
    assert failed_ops(bench) == {"verify:q1/pushdown"}


def test_changed_charge_fails_the_operation(monkeypatch):
    bench = checked_bench(tiny_spec())
    real = workloads.Executor.execute

    def overcharge(self, plan, **kwargs):
        result = real(self, plan, **kwargs)
        result.charged += 1.0
        return result

    monkeypatch.setattr(workloads.Executor, "execute", overcharge)
    bench.run_pass("0", traced=False)
    assert failed_ops(bench) == {"0:q1/pushdown", "0:q1/pullup"}
    assert all("charge changed" in reason for _, reason in bench.failures)


def test_exhaustive_must_not_lose_on_estimate():
    def result(strategy, cost):
        return checks.OpResult(
            key=f"c/{strategy}", query="c", strategy=strategy, est_cost=cost
        )

    ok = [result("exhaustive", 10.0), result("pushdown", 10.0 + 1e-12)]
    assert checks.exhaustive_problems(ok) == {}
    bad = [result("exhaustive", 11.0), result("migration", 10.0)]
    assert set(checks.exhaustive_problems(bad)) == {"c/exhaustive"}


def adaptive_pair(instance, charged, replans, static=100.0, digest="x"):
    key = f"s#{instance}"
    return (
        checks.OpResult(
            key=f"{key}/migration", query=key, strategy="migration",
            charged=charged, replans=replans, digest=digest,
        ),
        checks.OpResult(
            key=f"{key}/static", query=key, strategy="static",
            charged=static, digest="x",
        ),
    )


def test_neutral_scenarios_must_stay_inert():
    gate = checks.adaptive_problems
    assert gate([adaptive_pair(0, 100.0, 0)], "neutral") == {}
    for bad in (adaptive_pair(0, 100.0, 1), adaptive_pair(0, 99.0, 0)):
        assert set(gate([bad], "neutral")) == {"s#0/migration"}
    assert gate([adaptive_pair(0, 100.0, 0, digest="y")], "neutral")


def test_drift_must_replan_and_win_over_its_instances():
    gate = checks.adaptive_problems
    assert gate([adaptive_pair(0, 60.0, 1)], "improves") == {}
    # An instance whose stream ran dry before drift showed stays inert.
    assert gate(
        [adaptive_pair(0, 60.0, 1), adaptive_pair(1, 100.0, 0)], "improves"
    ) == {}
    assert set(gate(
        [adaptive_pair(0, 60.0, 1), adaptive_pair(1, 90.0, 0)], "improves"
    )) == {"s#1/migration"}
    assert set(gate(
        [adaptive_pair(0, 100.0, 0), adaptive_pair(1, 100.0, 0)], "improves"
    )) == {"s#0/migration", "s#1/migration"}
    assert gate([adaptive_pair(0, 120.0, 1)], "improves")
    assert gate([adaptive_pair(0, 60.0, 1, digest="y")], "improves")


def test_instances_get_their_own_data_and_keys():
    targets = build_targets(tiny_spec(instances=2), 7)
    assert [t.key for t in targets] == ["q1", "q1#1"]
    assert [t.db.seed for t in targets] == [14, 15]


def test_a_scenario_can_run_on_fewer_instances():
    spec = replace(
        workloads.SPECS["adapt"], instances=3,
        fewer_instances=(("adapt_honest", 1), ("adapt_mild", 0)),
    )
    targets = build_targets(spec, 5)
    assert [t.key for t in targets] == [
        "adapt_drift", "adapt_honest", "adapt_drift#1", "adapt_drift#2",
    ]
    assert [t.db.seed for t in targets] == [15, 15, 16, 17]


# -- the p90 sample rule ---------------------------------------------------


def test_p90_needs_one_hundred_samples():
    assert stats.rank(90, 100) == 90  # 0.9 * 100 would round up to 91
    assert stats.beyond(90, 100) == 10
    assert stats.beyond(90, 99) == 9
    assert stats.samples_needed(90, 10) == 100
    assert stats.percentile(list(range(1, 101)), 90) == 90
    assert stats.percentile([5.0], 50) == 5.0


def test_timed_passes_continue_until_the_sample_rule_holds():
    bench = Bench(tiny_spec(), [], SpanRecorder())
    bench.run_pass = lambda pass_id, traced: [("q1/x", 0.001, 1.0)] * 7
    bench.timed(0.0, traced=False)
    samples = bench.samples()
    assert len(samples) == 105  # 15 passes of 7
    assert stats.beyond(90, len(samples)) >= 10


# -- host-speed scaling ----------------------------------------------------


class StepClock:
    """Advances ``step`` seconds per reading."""

    def __init__(self, step):
        self.now, self.step = 0.0, step

    def __call__(self):
        self.now += self.step
        return self.now


def test_host_meter_spends_its_share_and_carries_the_rest():
    clock = StepClock(0.00025)  # a task reads the clock twice: 0.25 ms
    meter = hostspeed.HostMeter(share=0.1, sensitivity=0.5, clock=clock)
    one_task = (hostspeed.NOMINAL_S / 0.00025) ** 0.5
    assert meter.last is None
    assert meter.after(0.005) == pytest.approx(one_task)  # owes 0.5 ms
    assert clock.now == pytest.approx(0.001)  # two tasks
    assert meter.after(0.001) == pytest.approx(one_task)  # 0.15 ms ahead
    assert meter.after(0.001) is None  # 0.05 ms ahead
    assert meter.after(0.0005) is None  # even
    assert clock.now == pytest.approx(0.0015)
    assert meter.after(0.0001) is not None
    assert hostspeed.measure_scale(0.0) == 1.0


def test_op_scale_is_the_mean_of_the_task_runs_either_side():
    # Ops 0 and 1 back to back, a run (2.0), op 2, a run (4.0), op 3.
    assert hostspeed.op_scales(1.0, [2.0, 4.0], [0, 0, 1, 2]) == [
        1.5, 1.5, 3.0, 4.0,
    ]
    assert hostspeed.op_scales(None, [2.0], [0, 1]) == [2.0, 2.0]
    assert hostspeed.op_scales(None, [], [0]) == [1.0]


def test_a_pass_scales_each_op_by_the_task_runs_around_it():
    bench = checked_bench(tiny_spec())  # two operations per pass
    answers = iter([None, 2.0, 4.0, None])

    def after(seconds):
        scale = next(answers)
        if scale is not None:
            bench.meter.last = scale
        return scale

    bench.meter.after = after
    assert [scale for _, _, scale in bench.run_pass("0", False)] == [2.0, 2.0]
    # The second pass starts after the first one's last run.
    assert [scale for _, _, scale in bench.run_pass("1", False)] == [3.0, 4.0]


def test_timed_passes_scale_each_operation():
    bench = Bench(tiny_spec(), [], SpanRecorder())
    bench.run_pass = lambda pass_id, traced: (
        [("q1/x", 0.010, 0.5)] * 25 + [("q1/y", 0.010, 2.0)] * 25
    )
    bench.timed(0.0, traced=False)  # two passes make 100 samples
    assert bench.raw_seconds == pytest.approx([0.5, 0.5])
    assert bench.scales == pytest.approx([1.25, 1.25])
    assert sorted(set(bench.samples())) == pytest.approx([0.005, 0.02])


def test_ops_per_s_takes_each_operations_median():
    bench = Bench(tiny_spec(), [], SpanRecorder())
    bench.passes = [
        (False, [("a", 0.1), ("b", 0.3)]),
        (False, [("a", 0.1), ("b", 9.0)]),  # one mis-scaled sample
        (False, [("a", 0.1), ("b", 0.3)]),
        (True, [("a", 5.0), ("b", 5.0)]),  # traced: not counted
    ]
    metrics = end_to_end_metrics(bench, [{"scaled_s": 1.0}])
    assert metrics["ops_per_s"] == pytest.approx(2 / 0.4)
    assert metrics["op_p50_ms"] == pytest.approx(100.0)


# -- spans -----------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_children_and_rollups():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    with recorder.span("op", op="0:q/s"):
        clock.now = 1.0
        with recorder.span("exec.execute"):
            recorder.rollup("catalog.udf", 1.0, 1.5, 1)
            recorder.rollup("catalog.udf", 2.0, 2.25, 4)
            clock.now = 4.0
        clock.now = 5.0
    own = self_time_by_name(recorder.spans)
    assert own == {"op": 2.0, "exec.execute": 2.25, "catalog.udf": 0.75}
    udf = [s for s in recorder.spans if s.name == "catalog.udf"]
    assert len(udf) == 1 and udf[0].count == 5 and udf[0].op == "0:q/s"


def test_udf_wrapper_keeps_batch_and_restores():
    registry = FunctionRegistry()
    udf = registry.register("costly5", cost_per_call=5.0, selectivity=0.5)
    original = udf.fn
    expected = original.batch([(1,), (2,), (3,)])
    per_row_calls = []

    def counting(*args):
        per_row_calls.append(args)
        return original(*args)

    counting.batch = original.batch
    udf.fn = counting
    recorder = SpanRecorder()
    restore = wrap_udfs(registry, recorder)
    assert hasattr(udf.fn, "batch")
    with recorder.span("exec.execute"):
        assert udf.call_batch([(1,), (2,), (3,)]) == expected
        assert udf(4) == original(4)
    assert per_row_calls == [(4,)]  # the batch went through ``batch``
    assert udf.calls == 4
    rollup = [s for s in recorder.spans if s.name == "catalog.udf"]
    assert rollup[0].count == 4
    restore()
    assert udf.fn is counting


def test_wrapper_without_batch_stays_per_row():
    registry = FunctionRegistry()
    udf = registry.register("plain", lambda x: x > 1, cost_per_call=1.0)
    restore = wrap_udfs(registry, SpanRecorder())
    assert not hasattr(udf.fn, "batch")
    assert udf.call_batch([(1,), (2,)]) == [False, True]
    restore()


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_specs_are_well_formed(name):
    spec = workloads.SPECS[name]
    assert spec.queries and spec.strategies
    assert set(spec.strategies) <= set(workloads.ALL_STRATEGIES)

"""The execution event stream: one stream, independent listeners.

Every run-time observer listens on the same event stream. These tests
pin the stream's three promises:

* listeners do not perturb one another — EXPLAIN ANALYZE, feedback,
  telemetry, the flight recorder and the adaptive controller each
  produce the same output attached together as attached alone;
* an unobserved run builds no observing operator;
* the event methods are the whole listener contract — a stub that
  implements only them hears everything, with no duck-typed fallback.
"""

from contextlib import nullcontext

import pytest

from repro import Executor, build_database, optimize
from repro.adaptive.controller import AdaptivePolicy
from repro.adaptive.workloads import build_adapt_workload
from repro.bench.harness import DEFAULT_STRATEGIES
from repro.bench.workloads import build_workload
from repro.exec import vector
from repro.exec.containment import FailurePolicy
from repro.faults import FaultInjector, FaultPlan
from repro.obs.feedback import FeedbackCollector
from repro.obs.flightrec import FlightRecorder
from repro.obs.runtime_telemetry import RuntimeMonitor

WORKLOADS = ("q1", "q2", "q3", "q4", "q5")
KINDS = ("analyze", "feedback", "monitor", "flight")


@pytest.fixture(scope="module")
def db():
    return build_database(scale=10, seed=42)


def _analyze_view(plan, result) -> list:
    """Per-node actuals in plan order, wall-clock fields dropped."""
    view = []
    for node in plan.root.walk():
        stats = result.node_stats.get(id(node))
        batch = result.batch_stats.get(id(node))
        entry = {}
        if stats is not None:
            entry = stats.as_dict()
            del entry["wall_seconds"]
        if batch is not None:
            entry["batch"] = batch.as_dict()
            for predicate in entry["batch"]["predicates"]:
                del predicate["kernel_seconds"]
        view.append(entry)
    return view


def _monitor_view(monitor, result) -> dict:
    """Progress, operator and predicate state; latency (wall-clock)
    dropped, ``id()`` keys replaced by plan positions."""
    index = {
        key: progress.index for key, progress in monitor.operators.items()
    }
    return {
        "state": monitor.state,
        "reason": monitor.reason,
        "progress": monitor.progress(),
        "operators": [
            (
                progress.index, progress.label, progress.rows_out,
                progress.estimated_rows, progress.active, progress.done,
                progress.fraction,
            )
            for progress in sorted(
                monitor.operators.values(), key=lambda item: item.index
            )
        ],
        "predicates": [
            (
                telemetry.fingerprint, telemetry.evaluated,
                telemetry.passed, telemetry.cost.as_dict(),
            )
            for telemetry in monitor.predicates.values()
        ],
        "density": sorted(
            (index[key], tuple(totals))
            for key, totals in monitor.filter_density.items()
        ),
        "resources": result.resources.as_dict(),
    }


def _run(db, workload_key, strategy, kinds, *, adaptive=False,
         budget="workload", fault_seed=None) -> dict:
    """Plan fresh (an adaptive run may re-place predicates in place) and
    execute once with the listed listeners; return each one's output."""
    injector = (
        FaultInjector(
            FaultPlan.generate(fault_seed, ["costly100"], profile="mixed")
        )
        if fault_seed is not None
        else None
    )
    if workload_key.startswith("adapt_"):
        # The misestimation scenarios bind their own functions: one
        # database per run, at a scale where drift is observable.
        db = build_database(scale=100, seed=42)
        query = build_adapt_workload(db, workload_key).query
        workload_budget = None
    with injector.install(db.catalog) if injector else nullcontext():
        if not workload_key.startswith("adapt_"):
            workload = build_workload(db, workload_key)
            query, workload_budget = workload.query, workload.budget
        plan = optimize(db, query, strategy=strategy).plan
        collector = FeedbackCollector() if "feedback" in kinds else None
        # A ring large enough to keep the whole run, so retention does
        # not depend on how many progress snapshots a monitor adds.
        recorder = (
            FlightRecorder(capacity=1 << 20) if "flight" in kinds else None
        )
        monitor = RuntimeMonitor() if "monitor" in kinds else None
        result = Executor(
            db,
            budget=workload_budget if budget == "workload" else budget,
            listeners=[
                listener
                for listener in (collector, recorder, monitor)
                if listener is not None
            ],
            adaptive=AdaptivePolicy() if adaptive else None,
            failure_policy=(
                FailurePolicy(on_exhausted="skip-row")
                if injector
                else None
            ),
            clock=injector.clock if injector else None,
        ).execute(plan, instrument="analyze" in kinds)
    outputs = {
        "charged": result.charged,
        "rows": sorted(result.rows),
        "adaptive": (
            result.adaptive.as_dict() if result.adaptive is not None
            else None
        ),
    }
    if "analyze" in kinds:
        outputs["analyze"] = _analyze_view(plan, result)
    if collector is not None:
        outputs["feedback"] = [
            observation.as_dict() for observation in collector.observations()
        ]
    if monitor is not None:
        outputs["monitor"] = _monitor_view(monitor, result)
    if recorder is not None:
        # Progress snapshots (and the sequence numbers they take) come
        # from a monitor on the same run; the rest of the recording must
        # not depend on who else listens.
        outputs["flight"] = [
            {key: value for key, value in event.items() if key != "seq"}
            for event in recorder.events()
            if event["kind"] != "progress"
        ]
        outputs["tripped"] = recorder.tripped
    return outputs


def _assert_independent(db, workload_key, strategy, **options) -> None:
    together = _run(db, workload_key, strategy, KINDS, **options)
    for kind in KINDS:
        alone = _run(db, workload_key, strategy, (kind,), **options)
        assert together[kind] == alone[kind], (kind, workload_key, strategy)
        assert together["charged"] == alone["charged"]
        assert together["rows"] == alone["rows"]
    if options.get("adaptive"):
        # The controller is one more listener: what it observed and did
        # must not depend on the others either.
        bare = _run(db, workload_key, strategy, (), **options)
        assert together["adaptive"] == bare["adaptive"]


@pytest.mark.parametrize(
    "adaptive", [False, True], ids=["static", "adaptive"]
)
@pytest.mark.parametrize("strategy", DEFAULT_STRATEGIES)
@pytest.mark.parametrize("workload_key", WORKLOADS)
def test_listeners_do_not_perturb_each_other(
    db, workload_key, strategy, adaptive
):
    _assert_independent(db, workload_key, strategy, adaptive=adaptive)


def test_listeners_independent_under_budget_dnf(db):
    """A budget abort mid-batch: every listener freezes the same way."""
    outputs = _run(db, "q2", "pushdown", ("analyze",), budget=777.0)
    assert outputs["analyze"][0]["rows_out"] == 0
    _assert_independent(db, "q2", "pushdown", budget=777.0)
    _assert_independent(db, "q1", "pushdown", budget=50.0)


def test_listeners_independent_across_a_replan(db):
    """adapt_drift re-plans mid-query: the controller's ``replan`` notes
    reach the flight recorder, and no listener perturbs another."""
    outputs = _run(
        db, "adapt_drift", "migration", ("flight",), adaptive=True
    )
    assert outputs["adaptive"]["replans"] >= 1
    assert any(event["kind"] == "replan" for event in outputs["flight"])
    _assert_independent(db, "adapt_drift", "migration", adaptive=True)


@pytest.mark.parametrize("strategy", DEFAULT_STRATEGIES)
def test_listeners_independent_under_skip_row_chaos(db, strategy):
    """The per-row containment path (retries, quarantines as notes)."""
    outputs = _run(db, "q1", strategy, ("flight",), fault_seed=11)
    assert any(
        event["kind"] in ("udf.retry", "udf.quarantine")
        for event in outputs["flight"]
    )
    _assert_independent(db, "q1", strategy, fault_seed=11)


# -- unobserved runs stay unobserved ------------------------------------------


def test_no_listeners_build_no_observed_operator(db, monkeypatch):
    constructed = []
    original_init = vector.ObservedBatchOperator.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(self)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(
        vector.ObservedBatchOperator, "__init__", counting_init
    )
    workload = build_workload(db, "q4")
    plan = optimize(db, workload.query, strategy="migration").plan
    Executor(db).execute(plan)
    assert constructed == []

    Executor(db, listeners=(FeedbackCollector(),)).execute(plan)
    assert constructed  # sanity: the counter does fire when observed


# -- the event methods are the whole contract ---------------------------------


class StubListener:
    """Implements the event methods and nothing else (no base class)."""

    def __init__(self):
        self.calls = {}
        self.verdicts = {}

    def _count(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1

    def on_start(self, root, ctx):
        self._count("start")

    def on_end(self, result):
        self._count("end")

    def on_open(self, node):
        self._count("open")

    def on_batch(self, key, rows, seconds, delta):
        self._count("batch")

    def on_done(self, key, seconds, delta):
        self._count("done")

    def on_filter(self, key, chain, rows_in, rows_out, declared, kernels):
        self._count("filter")

    def on_verdicts(self, predicate, evaluated, passed, charges):
        self._count("verdicts")
        totals = self.verdicts.setdefault(predicate.pred_id, [0, 0])
        totals[0] += evaluated
        totals[1] += passed

    def on_note(self, kind, fields):
        self._count("note")


@pytest.mark.parametrize("fault_seed", [None, 11], ids=["clean", "chaos"])
def test_stub_listener_hears_every_event(db, fault_seed):
    injector = (
        FaultInjector(
            FaultPlan.generate(fault_seed, ["costly100"], profile="mixed")
        )
        if fault_seed is not None
        else None
    )
    with injector.install(db.catalog) if injector else nullcontext():
        workload = build_workload(db, "q1")
        plan = optimize(db, workload.query, strategy="pushdown").plan
        stub = StubListener()
        collector = FeedbackCollector()
        result = Executor(
            db,
            listeners=(stub, collector),
            failure_policy=(
                FailurePolicy(on_exhausted="skip-row") if injector else None
            ),
            clock=injector.clock if injector else None,
        ).execute(plan)
    assert result.completed
    for name in ("start", "end", "open", "batch", "done", "filter",
                 "verdicts"):
        assert stub.calls.get(name, 0) >= 1, name
    if injector is not None:
        assert stub.calls.get("note", 0) >= 1
    # The stub's verdict totals are exactly what the collector tallied:
    # every verdict reached it through ``on_verdicts``.
    tallies = {
        pred_id: [tally.evaluated, tally.passed]
        for pred_id, tally in collector._tallies.items()
    }
    assert stub.verdicts == tallies

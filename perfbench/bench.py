"""The benchmark itself: set-up probes, checked and timed passes, and
the end-to-end and per-layer metrics. ``run.py`` is its command line."""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from repro import optimize

from perfbench import checks
from perfbench.hostspeed import HostMeter, op_scales
from perfbench.stats import P90, beyond, percentile, samples_needed
from perfbench.trace import NULL_RECORDER, SpanRecorder, self_times, wrap_udfs
from perfbench.workloads import (
    ALL_STRATEGIES,
    DEFAULT_STRATEGIES,
    SPECS,
    execute_into,
    new_result,
    run_op,
    timed_setup,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Fresh-interpreter set-ups per run, the run's own included; ``setup_s``
#: is their median.
SETUP_REPEATS = 3
#: Timed passes stop starting after this long, whatever the sample count,
#: so a run on a slow machine still ends well inside three minutes.
MAX_TIMED_SECONDS = 110.0
#: Instrumented-vs-plain execution rounds (traced runs) repeat until they
#: have taken this long, at most ``MAX_TWIN_ROUNDS`` times.
TWIN_SECONDS = 3.0
MAX_TWIN_ROUNDS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "charged_total": "units",
    "est_cost_total": "units",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="repro benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup(workload: str, seed: int, repeats: int) -> list[dict]:
    """Time ``repeats`` set-ups, each in its own fresh interpreter."""
    probes = []
    for _ in range(repeats):
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "setup_probe.py"),
                "--workload", workload, "--seed", str(seed),
            ],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


class Bench:
    """One workload's operations, their checks and their timings."""

    def __init__(self, spec, targets, recorder) -> None:
        self.spec = spec
        self.targets = targets
        self.recorder = recorder
        self.reference: dict[str, object] = {}
        self.checked: list = []
        self.statics: dict[str, object] = {}
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        #: (traced, [(op key, seconds)]) per timed pass, each latency
        #: scaled to the nominal host by its operation's host scale.
        self.passes: list[tuple[bool, list[tuple[str, float]]]] = []
        self.meter = HostMeter(sensitivity=spec.host_sensitivity)
        #: Per timed pass: its host scale (scaled over unscaled seconds)
        #: and its unscaled seconds.
        self.scales: list[float] = []
        self.raw_seconds: list[float] = []
        self.traced_passes: list[str] = []
        self.twin_rounds = 0

    def ops(self):
        for target in self.targets:
            for strategy in self.spec.strategies:
                yield target, strategy

    def _fail(self, op_id: str, reasons) -> None:
        for reason in reasons:
            self.failures.append((op_id, reason))

    def _wrap(self, traced: bool):
        """Install the UDF timing wrappers on every database when traced;
        returns the restore callables."""
        if not traced:
            return []
        registries = {id(t.db): t.db.catalog.functions for t in self.targets}
        return [wrap_udfs(r, self.recorder) for r in registries.values()]

    def check_pass(self) -> None:
        """Run every operation once and check the answers."""
        spec, rec = self.spec, self.recorder
        restores = self._wrap(rec.enabled)
        try:
            results, plans = [], {}
            for target, strategy in self.ops():
                op_id = f"verify:{target.key}/{strategy}"
                with rec.span("op", op=op_id):
                    result, optimized = run_op(
                        spec, target, strategy, rec, digest=True
                    )
                results.append(result)
                plans[result.key] = (target, optimized)
            if not spec.execute:
                # Planning-only workload: execute each chosen plan once,
                # for its charge and for the row multiset check.
                for result in results:
                    target, optimized = plans[result.key]
                    if optimized is None:
                        continue
                    with rec.span("op", op=f"verify:{result.key}"):
                        try:
                            execute_into(
                                result, spec, target, optimized.plan, rec,
                                adaptive=False, instrument=False,
                                render=False, digest=True,
                            )
                        except Exception as exc:  # noqa: BLE001
                            result.error = f"{type(exc).__name__}: {exc}"
        finally:
            for restore in restores:
                restore()

        problems: dict[str, list[str]] = defaultdict(list)
        for result in results:
            problems[result.key] += checks.op_problems(
                result, spec.allowed_dnf, None
            )
        for key, reason in checks.multiset_problems(results).items():
            problems[key].append(reason)
        for key, reason in checks.exhaustive_problems(results).items():
            problems[key].append(reason)
        if spec.adaptive:
            for key, reason in self.static_twins(results).items():
                problems[key].append(reason)
        self.attempted += len(results)
        for result in results:
            self._fail("verify:" + result.key, problems[result.key])
        self.checked = results
        self.reference = {result.key: result for result in results}

    def static_twins(self, results) -> dict[str, str]:
        """``adapt``: run each scenario instance once without the adaptive
        policy and check the adaptive results against these twins."""
        pairs = defaultdict(list)
        for target, result in zip(self.targets, results):
            static = new_result(target, "static")
            try:
                plan = optimize(
                    target.db, target.query, strategy=result.strategy
                ).plan
                execute_into(
                    static, self.spec, target, plan, adaptive=False,
                    instrument=False, render=False, digest=True,
                )
            except Exception as exc:  # noqa: BLE001
                static.error = f"{type(exc).__name__}: {exc}"
            self.statics[target.key] = static
            pairs[target.expectation].append((result, static))
        problems = {}
        for expectation, group in pairs.items():
            problems.update(checks.adaptive_problems(group, expectation))
        for result, static in pairs["improves"] + pairs["neutral"]:
            if static.error:
                problems[result.key] = f"static twin raised {static.error}"
        return problems

    def run_pass(
        self, pass_id: str, traced: bool
    ) -> list[tuple[str, float, float]]:
        """One timed pass over every operation, with the host meter's
        reference task run between operations. Returns each operation's
        key, unscaled latency and host scale."""
        spec = self.spec
        rec = self.recorder if traced else NULL_RECORDER
        clock = time.perf_counter
        timings = []
        before, runs, follows = self.meter.last, [], []
        restores = self._wrap(traced)
        try:
            for target, strategy in self.ops():
                op_id = f"{pass_id}:{target.key}/{strategy}"
                started = clock()
                with rec.span("op", op=op_id):
                    result, _ = run_op(spec, target, strategy, rec)
                seconds = clock() - started
                timings.append((result.key, seconds))
                follows.append(len(runs))
                scale = self.meter.after(seconds)
                if scale is not None:
                    runs.append(scale)
                self.attempted += 1
                self._fail(op_id, checks.op_problems(
                    result, spec.allowed_dnf, self.reference.get(result.key)
                ))
        finally:
            for restore in restores:
                restore()
        scales = op_scales(before, runs, follows)
        return [(k, s, c) for (k, s), c in zip(timings, scales)]

    def timed(self, seconds: float, traced: bool) -> None:
        """Whole passes until ``seconds`` have passed and the latency
        sample is large enough; traced runs alternate untraced and traced
        passes, two of each at least."""
        needed = samples_needed()
        started = time.perf_counter()
        while True:
            pass_traced = traced and len(self.passes) % 2 == 1
            pass_id = str(len(self.passes))
            if pass_traced:
                self.traced_passes.append(pass_id)
            timings = self.run_pass(pass_id, pass_traced)
            raw = sum(seconds for _, seconds, _ in timings)
            scaled = [(key, s * scale) for key, s, scale in timings]
            self.raw_seconds.append(raw)
            self.scales.append(sum(s for _, s in scaled) / raw)
            self.passes.append((pass_traced, scaled))
            elapsed = time.perf_counter() - started
            if elapsed > MAX_TIMED_SECONDS:
                break
            if elapsed < seconds:
                continue
            if traced:
                if len(self.passes) >= 4:
                    break
            elif len(self.samples()) >= needed:
                break

    def samples(self) -> list[float]:
        """Scaled latencies of the untraced timed passes."""
        return [
            seconds
            for traced, timings in self.passes
            if not traced
            for _, seconds in timings
        ]

    def first_instance(self) -> list:
        """The targets of the first data instance; the traced-only extras
        below run on these alone, to keep traced runs short."""
        return [t for t in self.targets if "#" not in t.key]

    def sweep(self) -> None:
        """Traced runs only: plan (and execute) the workload's queries
        under the strategies it does not run, so every per-strategy layer
        metric is measured on every workload. Not counted as operations;
        strategies that reject a query are timed up to the rejection."""
        missing = [s for s in ALL_STRATEGIES if s not in self.spec.strategies]
        restores = self._wrap(True)
        try:
            for target in self.first_instance():
                for strategy in missing:
                    with self.recorder.span(
                        "op", op=f"sweep:{target.key}/{strategy}"
                    ):
                        run_op(self.spec, target, strategy, self.recorder)
        finally:
            for restore in restores:
                restore()

    def twins(self) -> None:
        """Traced runs only: execute each operation's plan plain and
        instrumented (with EXPLAIN ANALYZE rendered), and on ``adapt`` also
        without the adaptive policy, untraced, under ``twin`` spans.
        Rounds repeat for ``TWIN_SECONDS``."""
        started = time.perf_counter()
        while self.twin_rounds < MAX_TWIN_ROUNDS and (
            not self.twin_rounds
            or time.perf_counter() - started < TWIN_SECONDS
        ):
            self.twin_rounds += 1
            for target in self.first_instance():
                for strategy in self.spec.strategies:
                    self._twin(target, strategy)

    def _twin(self, target, strategy: str) -> None:
        spec, rec = self.spec, self.recorder
        variants = [("plain", spec.adaptive, False),
                    ("instrumented", spec.adaptive, True)]
        if spec.adaptive:
            variants.append(("static", False, False))
        with rec.span("op", op=f"twin:{target.key}/{strategy}"):
            for name, adaptive, instrument in variants:
                # A fresh plan each time: an adaptive run may re-place
                # predicates in the plan it executes.
                try:
                    plan = optimize(
                        target.db, target.query, strategy=strategy,
                        caching=spec.caching,
                    ).plan
                    execute_into(
                        new_result(target, strategy), spec, target, plan,
                        rec, adaptive=adaptive, instrument=instrument,
                        render=instrument, span=f"exec.execute.{name}",
                    )
                except Exception:  # noqa: BLE001 - counted earlier
                    pass


def pass_totals(spans) -> dict[str, dict[str, float]]:
    """Per pass id: busy and self time and counts per span name, also
    split by strategy (``name:busy.<strategy>``) and by query
    (``name:busy@<query>``)."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: defaultdict(float)
    )
    for span in spans:
        if not span.op or ":" not in span.op:
            continue
        pass_id, key = span.op.split(":", 1)
        query, _, strategy = key.rpartition("/")
        bucket = totals[pass_id]
        bucket[f"{span.name}:self"] += own[span.id]
        bucket[f"{span.name}:busy"] += span.busy
        bucket[f"{span.name}:count"] += span.count
        bucket[f"{span.name}:busy.{strategy}"] += span.busy
        bucket[f"{span.name}:busy@{query}"] += span.busy
    return totals


def end_to_end_metrics(bench, probes) -> dict[str, float]:
    """Times are scaled to the nominal host. ``ops_per_s`` is the
    throughput of a pass in which each operation takes its median
    latency over the untraced passes: one pass's time rests mostly on its
    few longest operations, and a median per operation keeps one
    mis-scaled sample of those from moving it."""
    samples = bench.samples()
    checked = [r for r in bench.checked if not r.error]
    per_op = defaultdict(list)
    for traced, timings in bench.passes:
        if not traced:
            for key, seconds in timings:
                per_op[key].append(seconds)
    return {
        "setup_s": statistics.median([p["scaled_s"] for p in probes]),
        "ops_per_s": len(per_op) / sum(
            statistics.median(seconds) for seconds in per_op.values()
        ),
        "op_p50_ms": 1000.0 * percentile(samples, 50),
        "op_p90_ms": 1000.0 * percentile(samples, 90),
        "charged_total": sum(r.charged for r in checked if r.executed),
        "est_cost_total": sum(r.est_cost for r in checked),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
    }


def layer_metrics(bench, probes) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as ``name -> (value, unit)``."""
    spec = bench.spec
    totals = pass_totals(bench.recorder.spans)
    traced = bench.traced_passes
    exec_passes = traced if spec.execute else ["verify"]

    def over(passes, key, scale=1.0):
        return statistics.median([totals[p][key] * scale for p in passes])

    def ratio(num, den):
        return num / den if den else 0.0

    def probed(key):
        return statistics.median([probe[key] for probe in probes])

    metrics: dict[str, tuple[float, str]] = {
        "cli.import_s": (probed("import_s"), "s"),
        "catalog.datagen_s": (probed("datagen_s"), "s"),
        "sql.compile_ms": (probed("compile_ms"), "ms"),
        "optimizer.plan_ms": (
            over(traced, "optimizer.optimize:busy", 1000.0), "ms"
        ),
    }
    for strategy in ALL_STRATEGIES:
        passes = traced if strategy in spec.strategies else ["sweep"]
        metrics[f"optimizer.plan_ms.{strategy}"] = (
            over(passes, f"optimizer.optimize:busy.{strategy}", 1000.0), "ms"
        )

    checked = bench.checked
    notes = defaultdict(float)
    for result in checked:
        for name, value in result.notes.items():
            if isinstance(value, (int, float)):
                notes[name] += value
    for name in (
        "subplans_enumerated", "subplans_pruned", "unpruneable_kept",
        "fixpoint_iterations",
    ):
        metrics[f"optimizer.{name}"] = (notes[name], "count")
    metrics["cost.memo_hit_rate"] = (
        ratio(
            notes["cost_memo_hits"],
            notes["cost_memo_hits"] + notes["cost_memo_misses"],
        ),
        "ratio",
    )

    metrics["exec.execute_ms"] = (
        over(exec_passes, "exec.execute:busy", 1000.0), "ms"
    )
    for strategy in DEFAULT_STRATEGIES:
        passes = (
            exec_passes if strategy in spec.strategies or not spec.execute
            else ["sweep"]
        )
        metrics[f"exec.execute_ms.{strategy}"] = (
            over(passes, f"exec.execute:busy.{strategy}", 1000.0), "ms"
        )
    metrics["exec.engine_ms"] = (
        over(exec_passes, "exec.execute:self", 1000.0), "ms"
    )
    counters = defaultdict(float)
    for result in checked:
        for name, value in result.counters.items():
            counters[name] += value
    metrics["exec.rows_out"] = (
        float(sum(r.rows for r in checked if r.executed)), "count"
    )
    metrics["storage.seq_ios"] = (counters["seq_ios"], "count")
    metrics["storage.random_ios"] = (counters["random_ios"], "count")
    metrics["storage.pool_hit_rate"] = (
        ratio(
            counters["pool_hits"],
            counters["pool_hits"] + counters["pool_misses"],
        ),
        "ratio",
    )
    metrics["catalog.udf_body_ms"] = (
        over(exec_passes, "catalog.udf:busy", 1000.0), "ms"
    )
    metrics["catalog.udf_calls"] = (
        over(exec_passes, "catalog.udf:count"), "count"
    )
    metrics["exec.cache_hit_rate"] = (
        ratio(
            counters["cache_hits"],
            counters["cache_hits"] + counters["cache_misses"],
        ),
        "ratio",
    )
    metrics["exec.cache_entries"] = (counters["cache_entries"], "count")
    dnfs = [r for r in checked if r.dnf]
    metrics["exec.dnf_ops"] = (float(len(dnfs)), "count")
    metrics["exec.dnf_overshoot"] = (
        ratio(
            sum(r.charged for r in dnfs),
            sum(r.budget for r in dnfs if r.budget),
        ),
        "ratio",
    )

    twin = totals["twin"]
    metrics["plan.render_ms"] = (
        1000.0 * ratio(twin["plan.explain_analyze:busy"], bench.twin_rounds),
        "ms",
    )
    metrics["obs.instrument_overhead"] = (
        ratio(
            twin["exec.execute.instrumented:busy"],
            twin["exec.execute.plain:busy"],
        ),
        "ratio",
    )

    improves = [t.key for t in bench.targets if t.expectation == "improves"]
    neutral = [
        t.key for t in bench.first_instance() if t.expectation == "neutral"
    ]
    metrics["adaptive.replans"] = (
        float(sum(r.replans for r in checked)), "count"
    )
    static_charged = sum(
        bench.statics[key].charged for key in improves if key in bench.statics
    )
    adaptive_charged = sum(
        r.charged for r in checked if r.query in improves
    )
    metrics["adaptive.charged_saved_ratio"] = (
        ratio(static_charged - adaptive_charged, static_charged), "ratio"
    )
    metrics["adaptive.overhead"] = (
        ratio(
            sum(twin[f"exec.execute.plain:busy@{key}"] for key in neutral),
            sum(twin[f"exec.execute.static:busy@{key}"] for key in neutral),
        ),
        "ratio",
    )
    metrics["host.speed"] = (statistics.median(bench.scales), "ratio")
    metrics["trace.overhead"] = (
        ratio(
            statistics.median(_pass_seconds(bench, traced=True)),
            statistics.median(_pass_seconds(bench, traced=False)),
        ),
        "ratio",
    )
    return metrics


def _pass_seconds(bench, traced: bool) -> list[float]:
    return [
        sum(seconds for _, seconds in timings)
        for pass_traced, timings in bench.passes
        if pass_traced == traced
    ]


def main(argv: list[str], import_s: float) -> int:
    """Run one workload. ``import_s`` is this fresh interpreter's own
    import of ``repro.__main__``, timed by ``run.py``: the run's set-up is
    the first of the ``SETUP_REPEATS`` samples."""
    args = parse_args(argv)
    spec = SPECS[args.workload]
    traced = bool(args.trace)
    recorder = SpanRecorder() if traced else NULL_RECORDER
    targets, own = timed_setup(
        spec, args.seed, import_s, recorder if traced else SpanRecorder()
    )
    probes = [own] + probe_setup(spec.name, args.seed, SETUP_REPEATS - 1)
    bench = Bench(spec, targets, recorder)
    bench.check_pass()
    bench.timed(args.seconds, traced)
    if traced:
        bench.sweep()
        bench.twins()

    engines = sorted({r.engine for r in bench.checked if r.engine})
    samples = bench.samples()
    print(
        f"workload {spec.name}: seed {args.seed}, scale {spec.scale}, "
        f"engine {','.join(engines) or '-'}, {len(bench.passes)} timed "
        f"passes, {len(samples)} untraced latency samples "
        f"({beyond(P90, len(samples))} beyond p90)"
    )
    raw_ops = sum(len(t) for _, t in bench.passes) / sum(bench.raw_seconds)
    print(
        f"host scale: passes {min(bench.scales):.3f}-"
        f"{max(bench.scales):.3f} (median "
        f"{statistics.median(bench.scales):.3f}), set-ups "
        + ", ".join(f"{p['host_scale']:.3f}" for p in probes)
        + f"; unscaled: {raw_ops:.4f} ops/s, set-up "
        f"{statistics.median([p['total_s'] for p in probes]):.4f} s"
    )
    for op_id, reason in bench.failures:
        print(f"FAILED {op_id}: {reason}")
    if traced:
        named = layer_metrics(bench, probes)
        path = recorder.write(OUT / f"trace-{spec.name}-seed{args.seed}.json")
        print(
            f"spans: {len(recorder.spans)} written to "
            f"{path.relative_to(ROOT)}"
        )
    else:
        named = {
            name: (value, END_TO_END_UNITS[name])
            for name, value in end_to_end_metrics(bench, probes).items()
        }
    failed = len({op_id for op_id, _ in bench.failures})
    for name, (value, unit) in named.items():
        print(f"  {name:<32} {value:>16.4f} {unit}")
    print(f"  {'ops_failed':<32} {failed:>16d} of {bench.attempted} attempted")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in named.items()
        },
    }))
    return 0 if failed == 0 else 1

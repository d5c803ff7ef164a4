"""Command-line driver: optimize and run SQL against the synthetic database.

Examples::

    python -m repro --sql "SELECT * FROM t3, t10 \
        WHERE t3.a1 = t10.ua1 AND costly100(t10.u20)"
    python -m repro --sql "..." --strategy pushdown --explain-only
    python -m repro --sql "..." --compare --caching
    python -m repro --workload q4 --compare --strategies all
    python -m repro --workload q1 --compare --record artifacts/
    python -m repro bench-diff benchmarks/baselines artifacts/
    python -m repro opt-speed --scale 10 --out artifacts/OPTSPEED.json
    python -m repro why q4 --strategy migration
    python -m repro plan-diff q4 pushdown migration
    python -m repro chaos q4 --seed 7
    python -m repro chaos q1 --seeds 7,11,13 --policy skip-row --report artifacts/
    python -m repro stats q4 --strategy pushdown --dir artifacts/
    python -m repro drift q4 1 2 --dir artifacts/
    python -m repro --workload q4 --trace-export trace.json
    python -m repro --workload q4 --explain-analyze
    python -m repro --workload q1 --budget 50 --flight-record artifacts/
    python -m repro postmortem artifacts/FLIGHT_q1.json
    python -m repro top q4 --once
    python -m repro top q1 --strategy pushdown --metrics-export top.prom
    python -m repro --workload q1 --compare --metrics-export metrics.json
    python -m repro bench-history benchmarks/baselines artifacts/
"""

from __future__ import annotations

import argparse
import math
import sys

from repro import Executor, build_database, compile_query, optimize, plan_tree
from repro.adaptive import AdaptivePolicy, load_injected_cards
from repro.adaptive.workloads import ADAPT_WORKLOADS, build_adapt_workload
from repro.bench import format_outcomes, resolve_strategies, run_strategies
from repro.bench.optspeed import (
    DEFAULT_REPEATS,
    DEFAULT_TABLE_COUNTS,
    compare_runs,
    format_payload,
    run_payload,
)
from repro.bench.workloads import WORKLOADS, build_workload
from repro.cost.model import CostModel
from repro.errors import ArtifactError, OptimizerError, ReproError
from repro.exec.containment import DEFAULT_RETRIES, EXHAUSTION_POLICIES
from repro.faults.plan import PROFILES
from repro.obs import (
    DRIFT_QERROR_THRESHOLD,
    NULL_PROFILER,
    NULL_TRACER,
    ArtifactRecorder,
    FlightRecorder,
    MetricsRegistry,
    PhaseProfiler,
    ProvenanceLedger,
    RuntimeMonitor,
    Tracer,
    build_export,
    build_flight_dump,
    collect_artifacts,
    diff_artifacts,
    export_chrome_trace,
    export_metrics,
    flight_path,
    format_postmortem,
    format_top,
    has_regressions,
    load_flight_dump,
    load_run_artifact,
    record_run,
    why_report,
    write_flight_dump,
)
from repro.obs.artifacts import is_bench_adapt_artifact
from repro.optimizer import STRATEGIES
from repro.plan import explain_analyze


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Practical Predicate Placement' "
            "(Hellerstein, SIGMOD 1994): optimize and execute SQL with "
            "expensive predicates."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--sql", help="SQL text to plan and run")
    source.add_argument(
        "--workload",
        choices=sorted(WORKLOADS) + sorted(ADAPT_WORKLOADS),
        help="one of the paper's benchmark queries, or an adapt_* "
        "misestimation scenario (seeded catalog lies for --adaptive)",
    )
    parser.add_argument(
        "--strategy",
        default="migration",
        choices=sorted(STRATEGIES),
        help="placement algorithm (default: migration)",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="run every placement algorithm and print the comparison table",
    )
    parser.add_argument(
        "--strategies",
        default="default",
        metavar="SPEC",
        help="strategy line-up for --compare: 'default' (the paper's six), "
        "'all' (adds ldl-ikkbz, the full registry), or a comma-separated "
        "list of strategy names",
    )
    parser.add_argument(
        "--record",
        metavar="DIR",
        help="write a BENCH_<workload>.json run artifact (environment, "
        "per-strategy measurements, plan fingerprints, hotspots) into DIR "
        "after a --compare run; pair with 'bench-diff' to gate regressions",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=100,
        help="database scale: tN has N x scale tuples (default 100; "
        "the paper's scale is 10000)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--caching", action="store_true", help="enable predicate caching"
    )
    parser.add_argument(
        "--cache-capacity",
        type=int,
        default=None,
        metavar="N",
        help="bound the predicate cache to N total entries across all "
        "predicates (global LRU; default: unbounded)",
    )
    parser.add_argument(
        "--bushy",
        action="store_true",
        help="enumerate bushy join trees (enumeration-based strategies)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help="charged-cost budget; plans exceeding it report DNF",
    )
    parser.add_argument(
        "--explain-only",
        action="store_true",
        help="print the plan without executing it",
    )
    parser.add_argument(
        "--explain-analyze",
        action="store_true",
        help="execute with per-operator instrumentation and print the plan "
        "annotated with estimated vs. actual rows/cost per node "
        "(single-strategy runs)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="record optimizer and executor spans and write them to FILE "
        "as JSON lines",
    )
    parser.add_argument(
        "--trace-export",
        metavar="FILE",
        help="record spans and profiler phases and write them to FILE as "
        "Chrome trace_event JSON (loadable in chrome://tracing or "
        "Perfetto)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the plan./exec. metrics snapshot after the run "
        "(single-strategy runs)",
    )
    parser.add_argument(
        "--metrics-export",
        metavar="FILE",
        help="attach live telemetry and write the final metrics snapshot "
        "to FILE — Prometheus text format, or a JSON document when FILE "
        "ends in .json (works for single-strategy and --compare runs)",
    )
    parser.add_argument(
        "--rows",
        type=int,
        default=0,
        metavar="N",
        help="print the first N result rows",
    )
    parser.add_argument(
        "--flight-record",
        metavar="DIR",
        help="attach the execution flight recorder (a fixed-capacity ring "
        "buffer of batch/row events); if the run dies — UDF-DNF, budget "
        "exhaustion — a strict-JSON FLIGHT_<workload>.json crash dump is "
        "written into DIR for 'repro postmortem' (single-strategy runs)",
    )
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="arm mid-query re-optimization: at row milestones, compare "
        "observed selectivities against the plan's estimates and — past "
        "the drift threshold — re-plan the unexecuted suffix in place "
        "(guardrailed: re-plan budget, oscillation damping, improvement "
        "check; rows and zero-replan charges are identical to a "
        "non-adaptive run)",
    )
    parser.add_argument(
        "--drift-threshold",
        type=float,
        default=None,
        metavar="Q",
        help=f"q-error above which observed-vs-declared selectivity "
        f"drift triggers a re-plan (default {DRIFT_QERROR_THRESHOLD:g}; "
        f"requires --adaptive)",
    )
    parser.add_argument(
        "--max-replans",
        type=int,
        default=None,
        metavar="N",
        help="re-plan budget per query; once spent the controller "
        "records a refusal and disarms (default 2; requires --adaptive)",
    )
    parser.add_argument(
        "--inject-cards",
        metavar="FILE",
        help="inject exact cardinalities before planning: a JSON file "
        "mapping predicate fingerprints (or UDF names) to selectivity / "
        "rows+input_rows (and optional cost_per_call), applied through "
        "Catalog.apply_feedback, then the query is recompiled so ranks "
        "re-derive from the injected statistics",
    )
    return parser


def _adaptive_policy(args) -> AdaptivePolicy | None:
    """The CLI's adaptive knobs as a policy, or ``None`` when off."""
    if not getattr(args, "adaptive", False):
        return None
    kwargs = {}
    if args.drift_threshold is not None:
        kwargs["drift_threshold"] = args.drift_threshold
    if args.max_replans is not None:
        kwargs["max_replans"] = args.max_replans
    return AdaptivePolicy(**kwargs)


def _inject_cards(db, args, query, build) -> object:
    """Apply ``--inject-cards`` and recompile; returns the new query.

    Two passes: the first compile (already done by the caller) yields
    the predicates whose fingerprints card keys may name; binding, then
    ``apply_feedback``, mutates the catalog; the rebuild re-derives
    every rank from the injected statistics (predicate stats are baked
    in at compile time, like ``repro stats --apply-feedback``).
    """
    store = load_injected_cards(args.inject_cards).bind(query.predicates)
    applied = db.catalog.apply_feedback(store)
    for key in store.unmatched:
        print(
            f"warning: injected card {key!r} looks like a predicate "
            "fingerprint but matches none of this query's predicates "
            "(treated as a UDF name)",
            file=sys.stderr,
        )
    print(
        f"-- injected cards: {applied} statistic(s) updated from "
        f"{args.inject_cards}",
        file=sys.stderr,
    )
    return build()


def _write_metrics(path: str, export) -> int:
    """Write a metrics snapshot; returns 0, or 1 on an unwritable path
    (structured error, mirroring ``--trace``'s handling)."""
    try:
        target = export_metrics(path, export)
    except OSError as error:
        print(
            f"error: cannot write metrics file: {error}", file=sys.stderr
        )
        return 1
    print(f"-- metrics: {target}", file=sys.stderr)
    return 0


def _print_stats(registry: MetricsRegistry, out) -> None:
    print("-- stats", file=out)
    for name, value in sorted(registry.snapshot().items()):
        if isinstance(value, float):
            print(f"{name} = {value:.6g}", file=out)
        else:
            print(f"{name} = {value}", file=out)


def _write_flight(
    directory: str,
    flight,
    *,
    workload: str,
    reason: str,
    strategy: str,
    seed: int,
    result=None,
    monitor=None,
    clamped_charges: int = 0,
) -> int:
    """Serialize one crash dump; returns 0, or 1 on an unwritable path."""
    document = build_flight_dump(
        flight,
        workload=workload,
        reason=reason,
        strategy=strategy,
        seed=seed,
        result=result,
        monitor=monitor,
        clamped_charges=clamped_charges,
    )
    try:
        target = write_flight_dump(
            flight_path(directory, workload), document
        )
    except OSError as error:
        print(
            f"error: cannot write flight dump: {error}", file=sys.stderr
        )
        return 1
    print(f"-- flight dump: {target}", file=sys.stderr)
    return 0


def _run(args, tracer, out, profiler=NULL_PROFILER, flight=None) -> int:
    db = build_database(scale=args.scale, seed=args.seed)
    registry = MetricsRegistry() if args.stats else None
    if args.workload and args.workload in ADAPT_WORKLOADS:
        from repro.adaptive.workloads import ADAPT_SQL

        adapt = build_adapt_workload(db, args.workload)
        query = adapt.query
        budget = args.budget
        rebuild = lambda: build_adapt_workload(db, args.workload).query  # noqa: E731
        print(f"-- {adapt.key}: {adapt.title}", file=out)
        print(ADAPT_SQL, file=out)
    elif args.workload:
        workload = build_workload(db, args.workload)
        query = workload.query
        budget = args.budget if args.budget is not None else workload.budget
        rebuild = lambda: build_workload(db, args.workload).query  # noqa: E731
        print(f"-- {workload.title} ({workload.figure})", file=out)
        print(workload.sql, file=out)
    else:
        from repro.bench.workloads import ensure_workload_functions

        ensure_workload_functions(db)
        query = compile_query(db, args.sql, name="cli")
        budget = args.budget
        rebuild = lambda: compile_query(db, args.sql, name="cli")  # noqa: E731
    if args.inject_cards:
        query = _inject_cards(db, args, query, rebuild)
    adaptive_policy = _adaptive_policy(args)

    if args.compare:
        # Recording instruments the run so artifacts carry per-operator
        # actuals, per-strategy provenance ledgers, and the profiler's
        # hotspot report.
        if not profiler.enabled and args.record:
            profiler = PhaseProfiler()
        try:
            strategies = resolve_strategies(args.strategies)
        except OptimizerError as error:
            # A mistyped strategy name is a usage error, not a runtime
            # failure: one line of valid choices, argparse's exit code.
            print(f"error: {error}", file=sys.stderr)
            return 2
        outcomes = run_strategies(
            db,
            query,
            strategies=strategies,
            caching=args.caching,
            budget=budget,
            execute=not args.explain_only,
            tracer=tracer,
            instrument=args.explain_analyze or bool(args.record),
            profiler=profiler,
            provenance=bool(args.record),
            feedback=bool(args.record),
            telemetry=bool(args.record) or bool(args.metrics_export),
            adaptive=adaptive_policy,
        )
        if adaptive_policy is not None:
            for outcome in outcomes:
                summary = outcome.extras.get("adaptive")
                if summary:
                    print(
                        f"-- adaptive[{outcome.strategy}]: "
                        f"{summary['replans']} replan(s), "
                        f"{summary['refusals']} refusal(s), "
                        f"{summary['triggers']} trigger(s) over "
                        f"{summary['boundaries']} boundaries",
                        file=out,
                    )
        print(
            format_outcomes(
                f"{query.name or 'query'} under every algorithm", outcomes
            ),
            file=out,
        )
        if args.metrics_export:
            monitors = {
                outcome.strategy: outcome.extras.get("monitor")
                for outcome in outcomes
                if outcome.extras.get("monitor") is not None
            }
            code = _write_metrics(
                args.metrics_export,
                build_export(registry=registry, monitors=monitors),
            )
            if code:
                return code
        if args.record:
            recorder = ArtifactRecorder(
                args.record, scale=args.scale, seed=args.seed
            )
            target = recorder.record(
                args.workload or query.name or "cli",
                outcomes,
                profiler=profiler,
            )
            print(f"-- artifact: {target}", file=sys.stderr)
        return 0

    optimized = optimize(
        db,
        query,
        strategy=args.strategy,
        caching=args.caching,
        bushy=args.bushy,
        tracer=tracer,
        profiler=profiler,
    )
    print(
        f"-- strategy: {args.strategy}  "
        f"(planned in {optimized.planning_seconds * 1000:.1f} ms, "
        f"estimated cost {optimized.estimated_cost:,.1f})",
        file=out,
    )
    # --explain-analyze replaces the plain tree with the annotated one,
    # unless --explain-only skips execution (then the plain tree is all
    # there is to show).
    if args.explain_only or not args.explain_analyze:
        print(plan_tree(optimized.plan), file=out)
    if args.explain_only:
        if registry is not None:
            record_run(registry, optimized)
            _print_stats(registry, out)
        return 0

    # A flight-recorded run keeps the monitor attached regardless of
    # --metrics-export: the crash dump's frozen progress section needs it.
    monitor = (
        RuntimeMonitor()
        if args.metrics_export or flight is not None
        else None
    )
    adaptive_ledger = (
        ProvenanceLedger() if adaptive_policy is not None else None
    )
    executor = Executor(
        db, caching=args.caching, budget=budget, tracer=tracer,
        profiler=profiler,
        listeners=[
            listener for listener in (flight, monitor) if listener is not None
        ],
        cache_capacity=args.cache_capacity,
        adaptive=adaptive_policy, ledger=adaptive_ledger,
    )
    result = executor.execute(
        optimized.plan,
        project=query.select,
        instrument=args.explain_analyze,
    )
    if result.adaptive is not None:
        report = result.adaptive
        status = (
            "active" if report.active
            else f"disabled ({report.disabled_reason})"
        )
        print(
            f"-- adaptive: {status}; {report.replans} replan(s), "
            f"{report.refusals} refusal(s), {report.triggers} trigger(s) "
            f"over {report.boundaries} boundaries "
            f"({report.leaf_rows} leaf rows)",
            file=out,
        )
        for event in report.events:
            action = event.get("action", "?")
            detail = ""
            if action == "applied":
                moves = ", ".join(
                    f"{move['predicate']} slot "
                    f"{move['from_slot']}->{move['to_slot']}"
                    for move in event.get("moves", [])
                )
                detail = f" [{event.get('rung', '?')}] {moves}"
            elif event.get("reason"):
                detail = f": {event['reason']}"
            print(
                f"--   replan event at leaf row "
                f"{event.get('leaf_rows', '?')}: {action}{detail}",
                file=out,
            )
    if monitor is not None and args.metrics_export:
        code = _write_metrics(
            args.metrics_export,
            build_export(registry=registry, monitors={"": monitor}),
        )
        if code:
            return code
    if args.explain_analyze:
        model = CostModel(db.catalog, db.params, caching=args.caching)
        print(
            explain_analyze(
                optimized.plan,
                result.node_stats,
                model,
                batch_stats=result.batch_stats,
            ),
            file=out,
        )
    if registry is not None:
        record_run(registry, optimized, result)
        _print_stats(registry, out)
    if not result.completed:
        if flight is not None and args.flight_record:
            code = _write_flight(
                args.flight_record,
                flight,
                workload=args.workload or query.name or "cli",
                reason=result.error,
                strategy=args.strategy,
                seed=args.seed,
                result=result,
                monitor=monitor,
                clamped_charges=int(db.meter.clamped_charges),
            )
            if code:
                return code
        print(
            f"DNF: exceeded budget after charging "
            f"{result.charged:,.1f} units",
            file=out,
        )
        return 2
    print(
        f"{result.row_count} rows, charged {result.charged:,.1f} units "
        f"({result.metrics['function_calls']:.0f} UDF calls, "
        f"{result.metrics['random_ios']:.0f} random + "
        f"{result.metrics['seq_ios']:.0f} sequential I/Os)",
        file=out,
    )
    for row in result.rows[: args.rows]:
        print(row, file=out)
    return 0


# -- bench-diff: the plan-regression gate ------------------------------------


def build_bench_diff_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench-diff",
        description=(
            "Compare two recorded bench runs (BENCH_*.json files, or "
            "directories of them) strategy by strategy. Exits 1 when a "
            "chosen plan's fingerprint changed, charged cost regressed "
            "beyond --max-regress, or cost-model error widened beyond "
            "--max-error-widen — so CI can gate on it."
        ),
    )
    parser.add_argument(
        "baseline", help="baseline artifact file or directory"
    )
    parser.add_argument(
        "candidate", help="candidate artifact file or directory"
    )
    parser.add_argument(
        "--max-regress",
        type=float,
        default=0.10,
        metavar="FRAC",
        help="maximum allowed fractional charged-cost growth per strategy "
        "(default 0.10)",
    )
    parser.add_argument(
        "--max-time-regress",
        type=float,
        default=None,
        metavar="FRAC",
        help="also gate on planning-time growth beyond FRAC (default: "
        "report only — wall-clock is not comparable across machines)",
    )
    parser.add_argument(
        "--max-error-widen",
        type=float,
        default=0.10,
        metavar="ABS",
        help="maximum allowed widening of |estimation error|, in absolute "
        "fractional-error units (default 0.10; pass inf to disable)",
    )
    return parser


def _artifact_number(record: dict, key: str) -> float:
    value = record.get(key)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return float("nan")


def _fmt_err(value: float) -> str:
    return "—" if math.isnan(value) else f"{value * 100:+.0f}%"


def _print_workload_diff(
    workload: str, baseline: dict, candidate: dict, out
) -> None:
    def strategies_of(document: dict) -> dict:
        value = document.get("strategies")
        return value if isinstance(value, dict) else {}

    base_strategies = strategies_of(baseline)
    cand_strategies = strategies_of(candidate)
    title = f"== {workload} (baseline -> candidate)"
    print(title, file=out)
    header = (
        f"{'strategy':<12} {'plan':>8} {'charged':>24} "
        f"{'plan.ms':>18} {'est.err':>12}"
    )
    print(header, file=out)
    print("-" * len(header), file=out)
    for strategy in sorted(set(base_strategies) | set(cand_strategies)):
        base = base_strategies.get(strategy)
        cand = cand_strategies.get(strategy)
        if base is None or cand is None:
            side = "candidate" if base is None else "baseline"
            print(f"{strategy:<12} (only in {side})", file=out)
            continue
        if not isinstance(base, dict) or not isinstance(cand, dict):
            print(f"{strategy:<12} (malformed record)", file=out)
            continue
        fingerprints = (base.get("fingerprint"), cand.get("fingerprint"))
        plan = "same" if fingerprints[0] == fingerprints[1] else "CHANGED"
        charged = (
            f"{_artifact_number(base, 'charged'):,.0f} -> "
            f"{_artifact_number(cand, 'charged'):,.0f}"
        )
        ms = (
            f"{_artifact_number(base, 'planning_seconds') * 1000:.1f}"
            " -> "
            f"{_artifact_number(cand, 'planning_seconds') * 1000:.1f}"
        )
        err = (
            f"{_fmt_err(_artifact_number(base, 'estimation_error'))}"
            " -> "
            f"{_fmt_err(_artifact_number(cand, 'estimation_error'))}"
        )
        print(
            f"{strategy:<12} {plan:>8} {charged:>24} {ms:>18} {err:>12}",
            file=out,
        )


def bench_diff(argv: list[str], out=None) -> int:
    """The ``bench-diff`` subcommand body; returns the exit code."""
    from repro.obs import Finding

    if out is None:
        # Late-bound so redirected/captured stdout is respected.
        out = sys.stdout
    args = build_bench_diff_parser().parse_args(argv)
    findings: list[Finding] = []
    try:
        base_set = collect_artifacts(args.baseline)
        cand_set = collect_artifacts(args.candidate)
        if not base_set:
            raise ArtifactError(
                f"no BENCH_*.json artifacts found under {args.baseline}"
            )
        if not cand_set:
            raise ArtifactError(
                f"no BENCH_*.json artifacts found under {args.candidate}"
            )
        for workload in sorted(set(base_set) | set(cand_set)):
            base_path = base_set.get(workload)
            cand_path = cand_set.get(workload)
            if is_bench_adapt_artifact(base_path or cand_path):
                findings.append(
                    Finding(
                        "note", workload, "*", "skipped",
                        "bench-adapt artifact (keyed by scenarios); "
                        "'repro bench-adapt' gates it, not bench-diff",
                    )
                )
                continue
            if base_path is None:
                findings.append(
                    Finding(
                        "note", workload, "*", "added",
                        "workload recorded only in the candidate run",
                    )
                )
                continue
            if cand_path is None:
                findings.append(
                    Finding(
                        "regression", workload, "*", "missing",
                        "workload present in baseline but not recorded "
                        "in the candidate run",
                    )
                )
                continue
            baseline = load_run_artifact(base_path)
            candidate = load_run_artifact(cand_path)
            _print_workload_diff(workload, baseline, candidate, out)
            findings.extend(
                diff_artifacts(
                    baseline,
                    candidate,
                    max_regress=args.max_regress,
                    max_time_regress=args.max_time_regress,
                    max_error_widen=args.max_error_widen,
                )
            )
    except ArtifactError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for finding in findings:
        print(str(finding), file=out)
    if has_regressions(findings):
        count = sum(1 for f in findings if f.severity == "regression")
        print(f"bench-diff: {count} regression(s)", file=out)
        return 1
    print("bench-diff: no regressions", file=out)
    return 0


# -- opt-speed: the planner-only microbench ----------------------------------


def build_opt_speed_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro opt-speed",
        description=(
            "Planner-only microbenchmark: median planning time per "
            "strategy × table count on deterministic join-chain queries. "
            "Never executes plans. With --baseline, warns (exit 0) when a "
            "cell's median regressed beyond --threshold — wall-clock is "
            "not comparable across machines, so this never gates."
        ),
    )
    parser.add_argument(
        "--scale", type=int, default=10,
        help="database scale factor (default 10, matching the committed "
        "bench baselines)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="data generator seed"
    )
    parser.add_argument(
        "--strategies", default="all",
        help="'default', 'all', or comma-separated strategy names",
    )
    parser.add_argument(
        "--tables", default=",".join(map(str, DEFAULT_TABLE_COUNTS)),
        metavar="LIST",
        help="comma-separated join-chain sizes (default "
        f"{','.join(map(str, DEFAULT_TABLE_COUNTS))})",
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS, metavar="N",
        help="repetitions per cell; the median is reported "
        f"(default {DEFAULT_REPEATS})",
    )
    parser.add_argument(
        "--out", metavar="FILE", help="write the run as JSON to FILE"
    )
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="compare against a previously recorded opt-speed JSON run",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.25, metavar="FRAC",
        help="fractional median growth that triggers a warning "
        "(default 0.25)",
    )
    return parser


def opt_speed(argv: list[str], out=None) -> int:
    """The ``opt-speed`` subcommand body; returns the exit code."""
    import json

    if out is None:
        out = sys.stdout
    args = build_opt_speed_parser().parse_args(argv)
    try:
        strategies = resolve_strategies(args.strategies)
        table_counts = tuple(
            int(part) for part in args.tables.split(",") if part.strip()
        )
        db = build_database(scale=args.scale, seed=args.seed)
        payload = run_payload(
            db, strategies, table_counts, repeats=args.repeats
        )
    except (ReproError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_payload(payload), file=out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"-- opt-speed artifact: {args.out}", file=sys.stderr)
    if args.baseline:
        try:
            with open(args.baseline, encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as error:
            print(
                f"error: cannot read baseline: {error}", file=sys.stderr
            )
            return 2
        warnings = compare_runs(
            baseline, payload, threshold=args.threshold
        )
        for warning in warnings:
            print(warning, file=out)
        if not warnings:
            print("opt-speed: no planning-time regressions", file=out)
        else:
            print(
                f"opt-speed: {len(warnings)} warning(s) — informational "
                "only, wall-clock never gates",
                file=out,
            )
    return 0


# -- why: the per-predicate placement explainer -------------------------------


def build_why_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro why",
        description=(
            "Explain where a strategy placed each expensive predicate and "
            "why: the recorded decision chain (rank orderings, rank "
            "comparisons, migration passes) plus a counterfactual that "
            "re-costs the plan with the predicate moved one join up/down."
        ),
    )
    parser.add_argument(
        "workload", choices=sorted(WORKLOADS), help="workload to explain"
    )
    parser.add_argument(
        "--strategy", default="migration", choices=sorted(STRATEGIES),
        help="placement strategy to explain (default migration)",
    )
    parser.add_argument(
        "--predicate", metavar="SUBSTR",
        help="only explain predicates whose text contains SUBSTR",
    )
    parser.add_argument(
        "--scale", type=int, default=10,
        help="database scale factor (default 10, matching the committed "
        "bench baselines)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="data generator seed"
    )
    parser.add_argument(
        "--caching", action="store_true",
        help="cost and plan under the function-cache model",
    )
    parser.add_argument(
        "--bushy", action="store_true",
        help="allow bushy join trees (exhaustive/migration strategies)",
    )
    return parser


def why(argv: list[str], out=None) -> int:
    """The ``why`` subcommand body; returns the exit code."""
    from repro.obs import ProvenanceLedger, why_report

    if out is None:
        out = sys.stdout
    args = build_why_parser().parse_args(argv)
    try:
        db = build_database(scale=args.scale, seed=args.seed)
        workload = build_workload(db, args.workload)
        ledger = ProvenanceLedger()
        optimized = optimize(
            db,
            workload.query,
            strategy=args.strategy,
            caching=args.caching,
            bushy=args.bushy,
            ledger=ledger,
        )
        model = CostModel(db.catalog, db.params, caching=args.caching)
        print(
            why_report(optimized, model, predicate=args.predicate), file=out
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


# -- plan-diff: aligned cross-strategy plan comparison ------------------------


def build_plan_diff_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro plan-diff",
        description=(
            "Optimize one workload under two strategies and show the plans "
            "side by side — per-node estimated rows/cost, '≠' marking "
            "differing lines — followed by each strategy's provenance "
            "ledger event counts."
        ),
    )
    parser.add_argument(
        "workload", choices=sorted(WORKLOADS), help="workload to plan"
    )
    parser.add_argument(
        "strategy_a", choices=sorted(STRATEGIES), help="left strategy"
    )
    parser.add_argument(
        "strategy_b", choices=sorted(STRATEGIES), help="right strategy"
    )
    parser.add_argument(
        "--scale", type=int, default=10,
        help="database scale factor (default 10, matching the committed "
        "bench baselines)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="data generator seed"
    )
    parser.add_argument(
        "--caching", action="store_true",
        help="cost and plan under the function-cache model",
    )
    parser.add_argument(
        "--bushy", action="store_true",
        help="allow bushy join trees (exhaustive/migration strategies)",
    )
    return parser


def plan_diff(argv: list[str], out=None) -> int:
    """The ``plan-diff`` subcommand body; returns the exit code."""
    from repro.obs import ProvenanceLedger
    from repro.plan.display import plan_tree_annotated, side_by_side

    if out is None:
        out = sys.stdout
    args = build_plan_diff_parser().parse_args(argv)
    try:
        db = build_database(scale=args.scale, seed=args.seed)
        workload = build_workload(db, args.workload)
        model = CostModel(db.catalog, db.params, caching=args.caching)
        columns = []
        ledgers = []
        for strategy in (args.strategy_a, args.strategy_b):
            ledger = ProvenanceLedger()
            optimized = optimize(
                db,
                workload.query,
                strategy=strategy,
                caching=args.caching,
                bushy=args.bushy,
                ledger=ledger,
            )
            title = (
                f"{strategy}  (est cost {optimized.estimated_cost:,.1f}, "
                f"{len(ledger.events)} ledger events)"
            )
            columns.append(
                (title, plan_tree_annotated(optimized.plan, model))
            )
            ledgers.append(ledger)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    (title_a, tree_a), (title_b, tree_b) = columns
    print(f"== {args.workload}: {workload.title}", file=out)
    print(side_by_side(tree_a, tree_b, title_a, title_b), file=out)
    print("", file=out)
    print("ledger event counts:", file=out)
    kinds = sorted(
        set(ledgers[0].event_counts()) | set(ledgers[1].event_counts())
    )
    counts_a = ledgers[0].event_counts()
    counts_b = ledgers[1].event_counts()
    width = max([len(kind) for kind in kinds] or [4])
    for kind in kinds:
        print(
            f"  {kind:<{width}}  {args.strategy_a}={counts_a.get(kind, 0)}"
            f"  {args.strategy_b}={counts_b.get(kind, 0)}",
            file=out,
        )
    if not kinds:
        print("  (none recorded)", file=out)
    return 0


# -- chaos: seeded fault injection across every strategy ----------------------


def build_chaos_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description=(
            "Run one workload under seeded fault schedules (UDF errors, "
            "injected latency, corrupted statistics, planner crashes) "
            "across every strategy, and check the robustness invariants: "
            "recoverable faults reproduce the fault-free rows exactly, "
            "unrecoverable faults surface as structured DNFs or honest "
            "quarantines, and nothing ever escapes as a traceback. "
            "Exits 1 on any invariant violation."
        ),
    )
    parser.add_argument(
        "workload", choices=sorted(WORKLOADS), help="workload to torment"
    )
    parser.add_argument(
        "--seed", type=int, action="append", metavar="N",
        help="one chaos seed (repeatable); overrides --seeds",
    )
    parser.add_argument(
        "--seeds", default="7,11,13", metavar="LIST",
        help="comma-separated chaos seeds (default 7,11,13)",
    )
    parser.add_argument(
        "--strategies", default="chaos", metavar="SPEC",
        help="'chaos' (the degradation ladder's rungs), 'default', 'all', "
        "or a comma-separated list of strategy names",
    )
    parser.add_argument(
        "--policy", default="abort", choices=EXHAUSTION_POLICIES,
        help="on-exhaustion policy after bounded retries (default abort)",
    )
    parser.add_argument(
        "--retries", type=int, default=DEFAULT_RETRIES,
        help=f"bounded retries per failing evaluation "
        f"(default {DEFAULT_RETRIES})",
    )
    parser.add_argument(
        "--scale", type=int, default=5,
        help="database scale factor (default 5 — chaos runs many "
        "executions, so small is deliberate)",
    )
    parser.add_argument(
        "--db-seed", type=int, default=42, help="data generator seed"
    )
    parser.add_argument(
        "--profile", default="mixed", choices=sorted(PROFILES),
        help="fault-generation profile (default mixed)",
    )
    parser.add_argument(
        "--planner-fault-rate", type=float, default=0.25, metavar="FRAC",
        help="probability each non-floor ladder rung is made to crash "
        "(default 0.25)",
    )
    parser.add_argument(
        "--report", metavar="DIR",
        help="write the full report (fault plans, outcomes, quarantines) "
        "as CHAOS_<workload>.json into DIR",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="attach a runtime monitor to every execution and audit the "
        "telemetry invariants too (aborts freeze progress with a "
        "structured reason; completions reach 100%%)",
    )
    parser.add_argument(
        "--flight-record", metavar="DIR",
        help="attach an execution flight recorder to every strategy run; "
        "each run that dies writes a "
        "FLIGHT_<workload>_seed<seed>_<strategy>.json crash dump into "
        "DIR for 'repro postmortem'",
    )
    parser.add_argument(
        "--adaptive", action="store_true",
        help="pair every (seed, strategy) run with an adaptive twin "
        "(mid-query re-optimization armed) and audit the equivalence "
        "invariant: when no error faults fired in either run, the "
        "twin's row multiset must equal the static run's exactly",
    )
    parser.add_argument(
        "--drift-threshold", type=float, default=None, metavar="Q",
        help="adaptive twin's re-plan trigger threshold "
        f"(default {DRIFT_QERROR_THRESHOLD:g}; requires --adaptive)",
    )
    parser.add_argument(
        "--max-replans", type=int, default=None, metavar="N",
        help="adaptive twin's re-plan budget (default 2; requires "
        "--adaptive)",
    )
    return parser


def build_bench_adapt_parser() -> argparse.ArgumentParser:
    from repro.adaptive.bench import DEFAULT_ADAPT_SCALE

    parser = argparse.ArgumentParser(
        prog="repro bench-adapt",
        description=(
            "The adaptive robustness bench: run every seeded "
            "misestimation scenario static and adaptive, write "
            "BENCH_adapt.json, and gate — adaptive must beat the static "
            "plan's charged cost (with >= 1 recorded re-plan) where the "
            "catalog lies past the drift threshold, must trigger zero "
            "re-plans where it is honest or tolerably wrong, and row "
            "multisets must match everywhere. Exits 1 on any gate "
            "violation."
        ),
    )
    parser.add_argument(
        "--scale", type=int, default=DEFAULT_ADAPT_SCALE,
        help=f"database scale factor (default {DEFAULT_ADAPT_SCALE}; "
        "the bench refuses scales too small to observe drift)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="data generator seed"
    )
    parser.add_argument(
        "--strategy", default="migration", choices=sorted(STRATEGIES),
        help="placement strategy for the static plan (default migration)",
    )
    parser.add_argument(
        "--drift-threshold", type=float, default=None, metavar="Q",
        help="re-plan trigger threshold "
        f"(default {DRIFT_QERROR_THRESHOLD:g})",
    )
    parser.add_argument(
        "--max-replans", type=int, default=None, metavar="N",
        help="re-plan budget per query (default 2)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write BENCH_adapt.json to PATH (a directory or explicit "
        ".json file)",
    )
    parser.add_argument(
        "--flight-record", metavar="DIR",
        help="write one FLIGHT_<scenario>_adaptive.json event-trail dump "
        "per adaptive run into DIR",
    )
    return parser


def bench_adapt(argv: list[str], out=None) -> int:
    """The ``bench-adapt`` subcommand body; returns the exit code."""
    from repro.adaptive.bench import (
        format_adapt_report,
        run_adapt_bench,
        write_adapt_artifact,
    )

    if out is None:
        out = sys.stdout
    args = build_bench_adapt_parser().parse_args(argv)
    try:
        document, violations = run_adapt_bench(
            scale=args.scale,
            seed=args.seed,
            strategy=args.strategy,
            drift_threshold=args.drift_threshold,
            max_replans=args.max_replans,
            flight_dir=args.flight_record,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_adapt_report(document), file=out)
    if args.out:
        target = write_adapt_artifact(args.out, document)
        print(f"-- adapt artifact: {target}", file=sys.stderr)
    return 1 if violations else 0


def chaos(argv: list[str], out=None) -> int:
    """The ``chaos`` subcommand body; returns the exit code."""
    import json
    import os

    from repro.faults.chaos import (
        DEFAULT_CHAOS_STRATEGIES,
        format_chaos_report,
        run_chaos,
    )

    if out is None:
        out = sys.stdout
    args = build_chaos_parser().parse_args(argv)
    try:
        if args.strategies == "chaos":
            strategies = DEFAULT_CHAOS_STRATEGIES
        else:
            strategies = resolve_strategies(args.strategies)
        if args.seed:
            seeds = tuple(args.seed)
        else:
            seeds = tuple(
                int(part)
                for part in args.seeds.split(",")
                if part.strip()
            )
        if not seeds:
            raise ReproError(f"no chaos seeds in {args.seeds!r}")
    except (ReproError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        report = run_chaos(
            args.workload,
            seeds=seeds,
            strategies=strategies,
            policy=args.policy,
            retries=args.retries,
            scale=args.scale,
            db_seed=args.db_seed,
            profile=args.profile,
            planner_fault_rate=args.planner_fault_rate,
            telemetry=args.telemetry,
            flight_dir=args.flight_record,
            adaptive=args.adaptive,
            drift_threshold=args.drift_threshold,
            max_replans=args.max_replans,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_chaos_report(report), file=out)
    if args.report:
        os.makedirs(args.report, exist_ok=True)
        target = os.path.join(
            args.report, f"CHAOS_{args.workload}.json"
        )
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"-- chaos artifact: {target}", file=sys.stderr)
    return 0 if report.passed else 1


# -- top: the live query monitor ----------------------------------------------


def build_top_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro top",
        description=(
            "Execute one workload with live telemetry attached and show "
            "the monitor: per-operator progress (work units derived from "
            "the optimizer's cost estimates, refined online from observed "
            "selectivities), per-predicate observed selectivity and cost "
            "quantiles, and the resource roll-up. By default redraws "
            "while the query runs; --once prints a single deterministic "
            "final snapshot. Exits 1 when the query did not finish "
            "(budget DNF)."
        ),
    )
    parser.add_argument(
        "workload", choices=sorted(WORKLOADS), help="workload to watch"
    )
    parser.add_argument(
        "--strategy", default="migration", choices=sorted(STRATEGIES),
        help="placement strategy to execute (default migration)",
    )
    parser.add_argument(
        "--scale", type=int, default=100,
        help="database scale factor (default 100)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="data generator seed"
    )
    parser.add_argument(
        "--caching", action="store_true", help="enable predicate caching"
    )
    parser.add_argument(
        "--budget", type=float, default=None,
        help="charged-cost budget; the workload's own budget by default",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="print one final snapshot instead of live refreshes — "
        "deterministic output (wall-clock latency columns excepted)",
    )
    parser.add_argument(
        "--refresh-every", type=int, default=None, metavar="N",
        help="redraw after every N operator events in live mode "
        "(default: scale-dependent)",
    )
    parser.add_argument(
        "--metrics-export", metavar="FILE",
        help="also write the final metrics snapshot to FILE (Prometheus "
        "text, or JSON when FILE ends in .json)",
    )
    return parser


def top(argv: list[str], out=None) -> int:
    """The ``top`` subcommand body; returns the exit code."""
    if out is None:
        out = sys.stdout
    args = build_top_parser().parse_args(argv)
    try:
        db = build_database(scale=args.scale, seed=args.seed)
        workload = build_workload(db, args.workload)
        budget = (
            args.budget if args.budget is not None else workload.budget
        )
        optimized = optimize(
            db, workload.query, strategy=args.strategy,
            caching=args.caching,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    title = f"{args.workload} / {args.strategy}"
    refresh = None
    if not args.once:
        def refresh(snapshot: RuntimeMonitor) -> None:
            print(format_top(snapshot, title=title), file=out)
            print("", file=out)

    refresh_every = args.refresh_every
    if refresh_every is None:
        # Roughly a handful of redraws per run at any scale.
        refresh_every = max(256, args.scale * 64)
    monitor = RuntimeMonitor(
        refresh_callback=refresh, refresh_every=refresh_every
    )
    try:
        executor = Executor(
            db, caching=args.caching, budget=budget, listeners=(monitor,),
        )
        result = executor.execute(
            optimized.plan, project=workload.query.select
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(
        format_top(monitor, title=title, resources=result.resources),
        file=out,
    )
    if args.metrics_export:
        code = _write_metrics(
            args.metrics_export, build_export(monitors={"": monitor})
        )
        if code:
            return code
    return 0 if result.completed else 1


# -- bench-history: the cross-run trend table ---------------------------------


def build_bench_history_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench-history",
        description=(
            "Trend table over a sequence of recorded bench runs "
            "(BENCH_*.json files or directories, oldest first): charged "
            "cost and planning time per strategy per run, with '*' "
            "marking a plan-fingerprint change against the previous run. "
            "Informational only — it never gates; 'bench-diff' is the "
            "regression gate."
        ),
    )
    parser.add_argument(
        "dirs", nargs="+", metavar="DIR",
        help="artifact files or directories, oldest first",
    )
    parser.add_argument(
        "--workload", action="append", metavar="NAME",
        help="restrict the table to one workload (repeatable)",
    )
    return parser


def _history_cell(record: dict | None, changed: bool) -> str:
    if not isinstance(record, dict):
        return "—"
    mark = "*" if changed else ""
    ms = _artifact_number(record, "planning_seconds") * 1000
    ms_text = "—" if math.isnan(ms) else f"{ms:.1f}ms"
    if record.get("error"):
        return f"{mark}ERROR"
    charged = _artifact_number(record, "charged")
    if record.get("dnf") or math.isnan(charged):
        return f"{mark}DNF ({ms_text})"
    return f"{mark}{charged:,.0f} ({ms_text})"


def bench_history(argv: list[str], out=None) -> int:
    """The ``bench-history`` subcommand body; returns the exit code."""
    from repro.obs import auto_table

    if out is None:
        out = sys.stdout
    args = build_bench_history_parser().parse_args(argv)
    try:
        runs: list[tuple[str, dict]] = []
        for directory in args.dirs:
            found = collect_artifacts(directory)
            if not found:
                raise ArtifactError(
                    f"no BENCH_*.json artifacts found under {directory}"
                )
            runs.append((directory, found))
        workloads = sorted(set().union(*(set(f) for _, f in runs)))
        if args.workload:
            missing = sorted(set(args.workload) - set(workloads))
            if missing:
                raise ArtifactError(
                    f"workload(s) {missing} not recorded in any run; "
                    f"found {workloads}"
                )
            wanted = set(args.workload)
            workloads = [w for w in workloads if w in wanted]
        documents: dict[str, list[dict | None]] = {}
        for workload in workloads:
            documents[workload] = [
                load_run_artifact(found[workload])
                if workload in found
                else None
                for _, found in runs
            ]
    except ArtifactError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    any_changed = False
    for index, workload in enumerate(workloads):
        strategies: set[str] = set()
        per_run: list[dict] = []
        for document in documents[workload]:
            recorded = (
                document.get("strategies") if document else None
            )
            recorded = recorded if isinstance(recorded, dict) else {}
            per_run.append(recorded)
            strategies |= set(recorded)
        rows = []
        for strategy in sorted(strategies):
            cells = [strategy]
            previous_fp = None
            for recorded in per_run:
                record = recorded.get(strategy)
                fingerprint = (
                    record.get("fingerprint")
                    if isinstance(record, dict)
                    else None
                )
                changed = (
                    previous_fp is not None
                    and fingerprint is not None
                    and fingerprint != previous_fp
                )
                any_changed = any_changed or changed
                cells.append(_history_cell(record, changed))
                if fingerprint is not None:
                    previous_fp = fingerprint
            rows.append(cells)
        if index:
            print("", file=out)
        print(f"== {workload} ({len(runs)} runs)", file=out)
        headers = ["strategy"] + [label for label, _ in runs]
        aligns = ["left"] + ["right"] * len(runs)
        print(auto_table(headers, rows, aligns=aligns), file=out)
    if any_changed:
        print(
            "\n(* plan fingerprint changed vs the previous run)", file=out
        )
    return 0


# -- stats / drift: the observed-statistics feedback store --------------------


def build_stats_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro stats",
        description=(
            "Execute one workload with feedback collection enabled, append "
            "the harvested per-predicate observations (selectivity, "
            "per-call UDF cost, row counts) as a new epoch in "
            "STATS_<workload>.json, and print the observed-vs-declared "
            "table with q-errors and drift flags. Collection never "
            "changes plans; pass --apply-feedback to opt into re-deriving "
            "ranks from the observed statistics."
        ),
    )
    parser.add_argument(
        "workload", choices=sorted(WORKLOADS), help="workload to observe"
    )
    parser.add_argument(
        "--strategy",
        default="pushdown",
        choices=sorted(STRATEGIES),
        help="placement strategy to execute (default: pushdown)",
    )
    parser.add_argument(
        "--scale", type=int, default=100,
        help="database scale factor (default 100)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="data generator seed"
    )
    parser.add_argument(
        "--caching", action="store_true", help="enable predicate caching"
    )
    parser.add_argument(
        "--dir", default="artifacts", metavar="DIR",
        help="directory holding STATS_<workload>.json (default: artifacts)",
    )
    parser.add_argument(
        "--epoch", type=int, default=None, metavar="N",
        help="display a previously recorded epoch instead of running "
        "anything",
    )
    parser.add_argument(
        "--threshold", type=float, default=DRIFT_QERROR_THRESHOLD,
        metavar="Q",
        help=f"q-error above which a statistic is flagged as drifted "
        f"(default {DRIFT_QERROR_THRESHOLD:g})",
    )
    parser.add_argument(
        "--apply-feedback",
        action="store_true",
        help="after recording, overwrite the catalog's declared UDF "
        "statistics with the observed ones and re-plan — the explicit "
        "opt-in injection path (plans never change without it)",
    )
    return parser


def stats(argv: list[str], out=None) -> int:
    """The ``stats`` subcommand body; returns the exit code."""
    from repro.obs.artifacts import plan_fingerprint
    from repro.obs.feedback import (
        FeedbackCollector,
        StatsFeedbackStore,
        format_stats_epoch,
        stats_path,
    )

    if out is None:
        out = sys.stdout
    args = build_stats_parser().parse_args(argv)
    target = stats_path(args.dir, args.workload)

    if args.epoch is not None:
        # Display-only: no database, no execution — just the store.
        try:
            store = StatsFeedbackStore.load(target)
            epoch = store.epoch(args.epoch)
        except ArtifactError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(
            format_stats_epoch(
                args.workload, epoch, threshold=args.threshold
            ),
            file=out,
        )
        return 0

    try:
        db = build_database(scale=args.scale, seed=args.seed)
        workload = build_workload(db, args.workload)
        optimized = optimize(
            db, workload.query, strategy=args.strategy,
            caching=args.caching,
        )
        collector = FeedbackCollector()
        executor = Executor(
            db, caching=args.caching, listeners=(collector,)
        )
        result = executor.execute(optimized.plan, instrument=True)
        observations = collector.observations()
        store = StatsFeedbackStore.load_or_create(target, args.workload)
        operators = (
            [entry.as_dict() for entry in result.node_stats.values()]
            if result.node_stats is not None
            else None
        )
        number = store.record_epoch(
            observations,
            strategy=args.strategy,
            scale=args.scale,
            seed=args.seed,
            caching=args.caching,
            operators=operators,
        )
        saved = store.save(target)
        # Render from the persisted file, not the in-memory store — the
        # table the user sees is provably what the artifact contains.
        reloaded = StatsFeedbackStore.load(saved)
        print(
            format_stats_epoch(
                args.workload,
                reloaded.epoch(number),
                threshold=args.threshold,
            ),
            file=out,
        )
        print(f"-- stats artifact: {saved}", file=sys.stderr)

        if args.apply_feedback:
            before = plan_fingerprint(optimized.plan)
            applied = db.catalog.apply_feedback(reloaded, number)
            # Predicate statistics are baked in at compile time, so the
            # workload must be rebuilt for ranks to re-derive from the
            # injected numbers.
            reworkload = build_workload(db, args.workload)
            reoptimized = optimize(
                db, reworkload.query, strategy=args.strategy,
                caching=args.caching,
            )
            after = plan_fingerprint(reoptimized.plan)
            print(
                f"-- feedback applied: {applied} statistic(s) updated, "
                f"plan fingerprint {before} -> {after}"
                + (" (unchanged)" if before == after else " (plan changed)"),
                file=out,
            )
            print(
                f"-- estimated cost {optimized.estimated_cost:,.1f} -> "
                f"{reoptimized.estimated_cost:,.1f}",
                file=out,
            )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def build_drift_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro drift",
        description=(
            "Compare observed predicate statistics between two recorded "
            "epochs of STATS_<workload>.json (epoch-over-epoch drift: "
            "'the data moved', vs `repro stats`, which reports "
            "observed-vs-declared: 'the catalog lies'). With no epochs "
            "given, compares the two most recent; with one, compares it "
            "against the latest."
        ),
    )
    parser.add_argument(
        "workload", choices=sorted(WORKLOADS), help="workload to compare"
    )
    parser.add_argument(
        "epochs", type=int, nargs="*", metavar="EPOCH",
        help="zero, one, or two epoch numbers",
    )
    parser.add_argument(
        "--dir", default="artifacts", metavar="DIR",
        help="directory holding STATS_<workload>.json (default: artifacts)",
    )
    parser.add_argument(
        "--threshold", type=float, default=DRIFT_QERROR_THRESHOLD,
        metavar="Q",
        help=f"q-error above which an observed statistic counts as "
        f"drifted (default {DRIFT_QERROR_THRESHOLD:g})",
    )
    return parser


def drift(argv: list[str], out=None) -> int:
    """The ``drift`` subcommand body; returns the exit code."""
    from repro.obs.feedback import (
        StatsFeedbackStore,
        format_drift_report,
        stats_path,
    )

    if out is None:
        out = sys.stdout
    args = build_drift_parser().parse_args(argv)
    if len(args.epochs) > 2:
        print(
            "error: at most two epoch numbers (got "
            f"{len(args.epochs)}): compare one pair at a time",
            file=sys.stderr,
        )
        return 2
    target = stats_path(args.dir, args.workload)
    try:
        store = StatsFeedbackStore.load(target)
    except ArtifactError as error:
        print(
            f"error: {error}\nrecord epochs first: "
            f"repro stats {args.workload} --dir {args.dir}",
            file=sys.stderr,
        )
        return 2
    numbers = store.epoch_numbers()
    try:
        if len(args.epochs) == 2:
            first, second = args.epochs
        elif len(args.epochs) == 1:
            first, second = args.epochs[0], numbers[-1] if numbers else 0
        else:
            if len(numbers) < 2:
                raise ArtifactError(
                    f"need two recorded epochs to compare, found "
                    f"{numbers or 'none'}; run `repro stats "
                    f"{args.workload} --dir {args.dir}` again"
                )
            first, second = numbers[-2], numbers[-1]
        epoch_a = store.epoch(first)
        epoch_b = store.epoch(second)
    except ArtifactError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        format_drift_report(
            args.workload, epoch_a, epoch_b, threshold=args.threshold
        ),
        file=out,
    )
    return 0


# -- postmortem: render an execution flight-recorder crash dump ---------------


def build_postmortem_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro postmortem",
        description=(
            "Render a FLIGHT_<workload>.json crash dump written by a "
            "--flight-record run (or 'repro chaos --flight-record'): a "
            "timeline of the last batches before the abort, the frozen "
            "progress state, quarantine and clamp context, and the "
            "placement provenance of the operator that died. Exits 2 on "
            "a missing or malformed dump."
        ),
    )
    parser.add_argument(
        "dump", help="path to a FLIGHT_*.json crash dump"
    )
    parser.add_argument(
        "--last", type=int, default=12, metavar="N",
        help="timeline length: the last N recorded events (default 12)",
    )
    return parser


def postmortem(argv: list[str], out=None) -> int:
    """The ``postmortem`` subcommand body; returns the exit code."""
    if out is None:
        out = sys.stdout
    args = build_postmortem_parser().parse_args(argv)
    try:
        document = load_flight_dump(args.dump)
    except ArtifactError as error:
        # A wrong path or a non-dump file is a usage error, same exit
        # code argparse itself uses for bad arguments.
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_postmortem(document, last=max(1, args.last)), file=out)
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "postmortem":
        return postmortem(list(argv[1:]))
    if argv and argv[0] == "bench-diff":
        return bench_diff(list(argv[1:]))
    # Accept both `repro opt-speed …` and the two-word `repro bench
    # opt-speed …` spelling.
    if argv and argv[0] == "opt-speed":
        return opt_speed(list(argv[1:]))
    if argv[:2] == ["bench", "opt-speed"]:
        return opt_speed(list(argv[2:]))
    if argv and argv[0] == "why":
        return why(list(argv[1:]))
    if argv and argv[0] == "plan-diff":
        return plan_diff(list(argv[1:]))
    if argv and argv[0] == "chaos":
        return chaos(list(argv[1:]))
    if argv and argv[0] == "bench-adapt":
        return bench_adapt(list(argv[1:]))
    if argv[:2] == ["bench", "adapt"]:
        return bench_adapt(list(argv[2:]))
    if argv and argv[0] == "top":
        return top(list(argv[1:]))
    if argv and argv[0] == "bench-history":
        return bench_history(list(argv[1:]))
    if argv and argv[0] == "stats":
        return stats(list(argv[1:]))
    if argv and argv[0] == "drift":
        return drift(list(argv[1:]))
    args = build_parser().parse_args(argv)
    tracer = Tracer() if args.trace or args.trace_export else NULL_TRACER
    profiler = PhaseProfiler() if args.trace_export else NULL_PROFILER
    flight = FlightRecorder() if args.flight_record else None
    try:
        code = _run(args, tracer, sys.stdout, profiler=profiler,
                    flight=flight)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        code = 1
    if args.trace:
        try:
            count = tracer.export_jsonl(args.trace)
        except OSError as error:
            print(
                f"error: cannot write trace file: {error}", file=sys.stderr
            )
            return 1
        print(f"-- trace: {count} spans -> {args.trace}", file=sys.stderr)
    if args.trace_export:
        try:
            count = export_chrome_trace(
                args.trace_export, tracer=tracer, profiler=profiler,
                flight=flight,
            )
        except OSError as error:
            print(
                f"error: cannot write trace-export file: {error}",
                file=sys.stderr,
            )
            return 1
        print(
            f"-- trace-export: {count} events -> {args.trace_export}",
            file=sys.stderr,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())

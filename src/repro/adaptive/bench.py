"""The adaptive robustness bench: misestimation scenarios, gated.

Runs every :mod:`repro.adaptive.workloads` scenario twice — once static,
once with the adaptive controller — and checks the expectations that
make mid-query re-optimization trustworthy rather than merely exciting:

* **Correctness, always**: the adaptive run's row multiset must equal
  the static run's, for every scenario. Re-planning the suffix may
  change *where* work happens, never *what* comes out.
* **``improves`` scenarios**: adaptive must record at least one re-plan
  *and* finish with strictly lower charged cost than the static plan —
  the paper's rank arithmetic, applied mid-flight, must actually pay.
* **``neutral`` scenarios**: adaptive must record zero re-plans and
  charge *exactly* what the static run charges — the controller's taps
  and feedback plumbing are free when nothing drifts, so leaving
  ``--adaptive`` on for honest workloads costs nothing.

The run is written as ``BENCH_adapt.json`` (same ``schema_version`` /
``environment`` stamp as the per-workload artifacts, scenario records
instead of strategy records) so CI can upload and archive it next to the
q1–q5 baselines. Gate violations are returned as strings; the CLI exits
nonzero when any exist.

Scale floor: drift can only trigger once the misestimated predicate has
been *observed* ``min_samples`` times before enough of the stream has
already flowed past. Below ``scale≈60`` the ``adapt_drift`` join output
never reaches the sample floor and the bench cannot demonstrate a win,
so the bench refuses scales below :data:`MIN_ADAPT_SCALE` rather than
reporting a vacuous pass.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.adaptive.controller import AdaptivePolicy
from repro.adaptive.workloads import ADAPT_WORKLOADS, build_adapt_workload
from repro.catalog.datagen import build_database
from repro.errors import ArtifactError
from repro.exec import Executor
from repro.obs.artifacts import (
    SCHEMA_VERSION,
    _json_safe,
    default_environment,
    plan_fingerprint,
)
from repro.obs.flightrec import (
    FlightRecorder,
    build_flight_dump,
    flight_path,
    write_flight_dump,
)
from repro.obs.provenance import ProvenanceLedger
from repro.optimizer.optimizer import optimize

#: The artifact's conventional name next to ``BENCH_q1.json`` et al.
ADAPT_ARTIFACT = "BENCH_adapt.json"

#: Default scale: large enough that drift triggers with most of the
#: stream still ahead (see module docstring), small enough to run in
#: seconds.
DEFAULT_ADAPT_SCALE = 100

#: Below this the drift scenario cannot reach the observation floor.
MIN_ADAPT_SCALE = 60


def _run_one(db, plan, *, adaptive, policy, flight=None):
    """One execution; returns (result, ledger)."""
    ledger = ProvenanceLedger()
    executor = Executor(
        db,
        adaptive=policy if adaptive else None,
        ledger=ledger,
        listeners=(flight,) if flight is not None else (),
    )
    result = executor.execute(plan)
    return result, ledger


def _row_multiset(result):
    return sorted(tuple(row) for row in result.rows)


def run_adapt_bench(
    *,
    scale: int = DEFAULT_ADAPT_SCALE,
    seed: int = 42,
    strategy: str = "migration",
    drift_threshold: float | None = None,
    max_replans: int | None = None,
    flight_dir=None,
) -> tuple[dict, list[str]]:
    """Run the family; return ``(artifact_document, gate_violations)``.

    ``flight_dir`` (optional) receives one flight dump per adaptive run
    (``FLIGHT_<scenario>_adaptive.json``) so CI can archive the
    re-plan's in-flight event trail alongside the artifact.
    """
    if scale < MIN_ADAPT_SCALE:
        raise ArtifactError(
            f"adapt bench needs scale >= {MIN_ADAPT_SCALE} (drift must be "
            f"observable before the stream runs dry); got {scale}"
        )
    policy_kwargs = {}
    if drift_threshold is not None:
        policy_kwargs["drift_threshold"] = drift_threshold
    if max_replans is not None:
        policy_kwargs["max_replans"] = max_replans
    policy = AdaptivePolicy(**policy_kwargs)

    scenarios: dict[str, dict] = {}
    violations: list[str] = []
    for key in ADAPT_WORKLOADS:
        # Fresh database per execution: the adaptive run may re-place
        # predicates on the live plan, so static and adaptive must never
        # share a plan object (or a function registry's call counters).
        static_db = build_database(scale=scale, seed=seed)
        static_plan = optimize(
            static_db, build_adapt_workload(static_db, key).query,
            strategy=strategy,
        ).plan
        fingerprint = plan_fingerprint(static_plan)
        static_result, _ = _run_one(
            static_db, static_plan, adaptive=False, policy=policy
        )

        adaptive_db = build_database(scale=scale, seed=seed)
        scenario = build_adapt_workload(adaptive_db, key)
        adaptive_plan = optimize(
            adaptive_db, scenario.query, strategy=strategy
        ).plan
        flight = FlightRecorder()
        adaptive_result, ledger = _run_one(
            adaptive_db, adaptive_plan, adaptive=True, policy=policy,
            flight=flight,
        )
        report = adaptive_result.adaptive

        rows_equal = _row_multiset(static_result) == _row_multiset(
            adaptive_result
        )
        charged_delta = adaptive_result.charged - static_result.charged
        ledger_replans = len(ledger.events_of("plan.replan"))
        record = {
            "title": scenario.title,
            "expectation": scenario.expectation,
            "declared": scenario.declared,
            "realized": scenario.realized,
            "fingerprint": fingerprint,
            "static": {
                "charged": static_result.charged,
                "rows": static_result.row_count,
                "function_calls": int(static_result.metrics.get("function_calls", 0)),
            },
            "adaptive": {
                "charged": adaptive_result.charged,
                "rows": adaptive_result.row_count,
                "function_calls": int(adaptive_result.metrics.get("function_calls", 0)),
                "report": report.as_dict() if report is not None else None,
                "ledger_replan_events": ledger_replans,
            },
            "charged_delta": charged_delta,
            "rows_equal": rows_equal,
        }
        scenarios[key] = record

        replans = report.replans if report is not None else 0
        if not rows_equal:
            violations.append(
                f"{key}: adaptive row multiset diverged from static "
                f"({adaptive_result.row_count} vs "
                f"{static_result.row_count} rows)"
            )
        if scenario.expectation == "improves":
            if replans < 1:
                violations.append(
                    f"{key}: expected >= 1 re-plan on the misestimated "
                    f"stream, recorded {replans}"
                )
            if not charged_delta < 0:
                violations.append(
                    f"{key}: adaptive must beat the static plan's charged "
                    f"cost, but charged {adaptive_result.charged:.1f} vs "
                    f"{static_result.charged:.1f}"
                )
            if ledger_replans < 1:
                violations.append(
                    f"{key}: re-plan happened but no plan.replan ledger "
                    "event was recorded"
                )
        else:  # neutral
            if replans != 0:
                violations.append(
                    f"{key}: honest/tolerable stats must trigger zero "
                    f"re-plans, recorded {replans}"
                )
            if adaptive_result.charged != static_result.charged:
                violations.append(
                    f"{key}: zero-replan adaptive run must charge exactly "
                    f"the static cost ({adaptive_result.charged:.3f} vs "
                    f"{static_result.charged:.3f})"
                )

        if flight_dir is not None:
            dump = build_flight_dump(
                flight,
                workload=key,
                reason="adapt-bench adaptive run (not an abort)",
                strategy=strategy,
                seed=seed,
                result=adaptive_result,
                ledger=ledger,
            )
            write_flight_dump(
                flight_path(flight_dir, key, suffix="adaptive"), dump
            )

    document = {
        "schema_version": SCHEMA_VERSION,
        "workload": "adapt",
        "environment": default_environment(scale=scale, seed=seed),
        "policy": {
            "drift_threshold": policy.drift_threshold,
            "max_replans": policy.max_replans,
            "min_samples": policy.min_samples,
        },
        "strategy": strategy,
        "scenarios": scenarios,
        "violations": list(violations),
    }
    return _json_safe(document), violations


def write_adapt_artifact(path, document: dict) -> Path:
    """Write the bench document; ``path`` may be a directory."""
    target = Path(path)
    if target.suffix != ".json":
        target = target / ADAPT_ARTIFACT
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, allow_nan=False)
        handle.write("\n")
    return target


def format_adapt_report(document: dict) -> str:
    """Human-readable table of one bench document."""
    lines = []
    env = document.get("environment", {})
    policy = document.get("policy", {})
    lines.append(
        f"== adaptive robustness bench "
        f"(scale {env.get('scale')}, seed {env.get('seed')}, "
        f"threshold {policy.get('drift_threshold')}, "
        f"max replans {policy.get('max_replans')}) =="
    )
    header = (
        f"{'scenario':<14} {'declared':>8} {'realized':>8} "
        f"{'static':>12} {'adaptive':>12} {'delta':>8} "
        f"{'replans':>7} {'rows=':>5}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for key, record in document.get("scenarios", {}).items():
        static = record["static"]["charged"]
        adaptive = record["adaptive"]["charged"]
        delta = (adaptive - static) / static if static else 0.0
        report = record["adaptive"].get("report") or {}
        lines.append(
            f"{key:<14} {record['declared']:>8.2f} "
            f"{record['realized']:>8.2f} {static:>12.1f} "
            f"{adaptive:>12.1f} {delta:>+7.1%} "
            f"{report.get('replans', 0):>7} "
            f"{'yes' if record['rows_equal'] else 'NO':>5}"
        )
    violations = document.get("violations", [])
    if violations:
        lines.append("")
        lines.append("GATE VIOLATIONS:")
        for violation in violations:
            lines.append(f"  - {violation}")
    else:
        lines.append("")
        lines.append(
            "all gates hold: adaptive wins under misestimation, stays "
            "inert when the catalog is honest, rows identical throughout"
        )
    return "\n".join(lines)

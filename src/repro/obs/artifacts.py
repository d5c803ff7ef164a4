"""Persistent run artifacts: one JSON document per benchmark run.

PR 1's tracer and metrics die with the process; this module makes a bench
run durable so two commits can be compared. One artifact captures:

* the **environment** — python, platform, ``REPRO_BENCH_SCALE`` /
  ``REPRO_BENCH_SEED``, and the git sha the run was taken at;
* one record per strategy — estimated cost, charged cost, rows, UDF
  calls, planning time, estimation error, the planner's decision
  ``notes``, per-operator actuals (when instrumented), and a **plan
  fingerprint**: a stable hash of the plan's canonical rendering from
  :mod:`repro.plan.display`, so "did the chosen plan change?" is one
  string comparison;
* the :class:`~repro.obs.profile.PhaseProfiler`'s phase table and
  ``top_hotspots`` report, when a profiler was active.

Artifacts are schema-versioned (``schema_version``) and written as strict
JSON: non-finite floats (``nan`` planning times, ``inf`` budgets) are
serialised as ``null`` so any JSON tool can read them back. File naming
follows ``BENCH_<workload>.json``.

:func:`diff_artifacts` is the regression gate: it compares two artifacts
strategy-by-strategy and reports plan-fingerprint changes, charged-cost
and planning-time deltas beyond thresholds, estimation-error widening,
and completed→DNF flips. Charged costs are deterministic simulated units
(given scale and seed), so CI can gate on them across machines; planning
times are wall-clock and only gate when a threshold is explicitly set.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ArtifactError
from repro.plan.display import plan_tree

#: Bump when the artifact document shape changes incompatibly.
SCHEMA_VERSION = 1

#: Artifact file naming convention: ``BENCH_<workload>.json``.
ARTIFACT_PREFIX = "BENCH_"


# -- plan fingerprints -------------------------------------------------------


def canonical_plan_form(plan) -> str:
    """The canonical text form a plan is fingerprinted over.

    :func:`repro.plan.display.plan_tree` already renders everything that
    defines a plan's identity — join-tree shape, join methods, primary
    join predicates, access paths, and per-node filter placement in
    stream order — deterministically, with no ids or addresses.
    """
    return plan_tree(plan)


def plan_fingerprint(plan) -> str:
    """A short stable hash of the plan's canonical form.

    Uses sha256 (not ``hash()``) so the fingerprint survives process
    restarts and ``PYTHONHASHSEED`` randomisation; 16 hex digits keep
    artifacts readable while leaving collisions astronomically unlikely.
    """
    text = canonical_plan_form(plan)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- building and (de)serialising artifacts ----------------------------------


def _json_safe(value):
    """Recursively coerce to strict-JSON-serialisable values.

    Non-finite floats become ``None`` (strict JSON has no ``NaN``);
    unknown objects fall back to ``str`` so a stray Predicate in a notes
    dict cannot make a whole run unrecordable.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return str(value)


def _git_sha() -> str:
    """The current commit, or ``unknown`` outside a git checkout."""
    env_sha = os.environ.get("GITHUB_SHA")
    if env_sha:
        return env_sha
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def default_environment(scale: int, seed: int) -> dict:
    """The reproducibility context recorded with every artifact."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "scale": scale,
        "seed": seed,
        "git_sha": _git_sha(),
    }


def strategy_record(outcome) -> dict:
    """One :class:`~repro.bench.harness.StrategyOutcome` as artifact data."""
    record = {
        "strategy": outcome.strategy,
        "fingerprint": (
            plan_fingerprint(outcome.plan)
            if outcome.plan is not None
            else None
        ),
        "estimated_cost": outcome.estimated_cost,
        "charged": outcome.charged,
        "rows": outcome.rows,
        "function_calls": outcome.function_calls,
        "planning_seconds": outcome.planning_seconds,
        "estimation_error": outcome.estimation_error,
        "relative": outcome.relative,
        "completed": outcome.completed,
        "executed": outcome.executed,
        "error": outcome.error,
        "notes": dict(outcome.notes),
    }
    operators = outcome.extras.get("operators")
    if operators is not None:
        record["operators"] = operators
    ledger = outcome.extras.get("ledger")
    if ledger is not None:
        record["ledger"] = ledger
    quality = outcome.extras.get("quality")
    if quality is not None:
        record["quality"] = quality
    resources = outcome.extras.get("resources")
    if resources is not None:
        # The live monitor's QueryResourceReport roll-up — deterministic
        # (simulated clock, no wall-time) and never gated by bench-diff,
        # like the other optional observability sections.
        record["resources"] = resources
    return record


def build_run_artifact(
    workload: str,
    outcomes,
    *,
    scale: int,
    seed: int,
    profiler=None,
    environment: dict | None = None,
) -> dict:
    """Assemble (but do not write) one run-artifact document."""
    document = {
        "schema_version": SCHEMA_VERSION,
        "workload": workload,
        "environment": (
            environment
            if environment is not None
            else default_environment(scale=scale, seed=seed)
        ),
        "strategies": {
            outcome.strategy: strategy_record(outcome)
            for outcome in outcomes
        },
    }
    if profiler is not None and profiler.enabled:
        document["profile"] = profiler.as_dict()
        document["hotspots"] = profiler.top_hotspots(10)
    return _json_safe(document)


def artifact_path(directory, workload: str) -> Path:
    """``<directory>/BENCH_<workload>.json``."""
    return Path(directory) / f"{ARTIFACT_PREFIX}{workload}.json"


def record_run_artifact(
    path,
    workload: str,
    outcomes,
    *,
    scale: int,
    seed: int,
    profiler=None,
    environment: dict | None = None,
) -> Path:
    """Write one run artifact and return where it landed.

    ``path`` may be a directory (the file is named by convention) or an
    explicit ``*.json`` file path.
    """
    target = Path(path)
    if target.suffix != ".json":
        target = artifact_path(target, workload)
    target.parent.mkdir(parents=True, exist_ok=True)
    document = build_run_artifact(
        workload,
        outcomes,
        scale=scale,
        seed=seed,
        profiler=profiler,
        environment=environment,
    )
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, allow_nan=False)
        handle.write("\n")
    return target


def load_run_artifact(path) -> dict:
    """Read one artifact back, validating the schema version."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as error:
        raise ArtifactError(f"cannot read artifact {path}: {error}") from None
    except json.JSONDecodeError as error:
        raise ArtifactError(
            f"artifact {path} is not valid JSON: {error}"
        ) from None
    if not isinstance(document, dict):
        raise ArtifactError(f"artifact {path} is not a JSON object")
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ArtifactError(
            f"artifact {path} has schema_version {version!r}; "
            f"this build reads version {SCHEMA_VERSION}"
        )
    return document


def collect_artifacts(path) -> dict[str, Path]:
    """Map workload key -> artifact file under ``path``.

    A directory yields every ``BENCH_*.json`` inside it; a file yields
    the single entry keyed by its conventional name (or file stem).
    """
    source = Path(path)
    if source.is_dir():
        found = sorted(source.glob(f"{ARTIFACT_PREFIX}*.json"))
        return {
            entry.stem[len(ARTIFACT_PREFIX):]: entry for entry in found
        }
    key = source.stem
    if key.startswith(ARTIFACT_PREFIX):
        key = key[len(ARTIFACT_PREFIX):]
    return {key: source}


def is_bench_adapt_artifact(path) -> bool:
    """Is ``path`` a ``repro bench-adapt`` artifact? It shares the
    ``BENCH_`` prefix with the ``--record`` artifacts but is keyed by
    ``scenarios``, and ``bench-adapt`` gates it itself."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return False  # load_run_artifact reports it properly
    return isinstance(document, dict) and "scenarios" in document


class ArtifactRecorder:
    """Records artifacts into a directory — or nothing, when unconfigured.

    The null-object default keeps call sites unconditional:
    ``recorder.record("q1", outcomes)`` is a no-op unless the user asked
    for ``--record DIR``.
    """

    def __init__(self, directory=None, *, scale: int = 0, seed: int = 0):
        self.directory = Path(directory) if directory else None
        self.scale = scale
        self.seed = seed

    @property
    def enabled(self) -> bool:
        return self.directory is not None

    def record(self, workload: str, outcomes, profiler=None) -> Path | None:
        if self.directory is None:
            return None
        return record_run_artifact(
            self.directory,
            workload,
            outcomes,
            scale=self.scale,
            seed=self.seed,
            profiler=profiler,
        )


# -- diffing two artifacts ---------------------------------------------------


@dataclass
class Finding:
    """One observation from an artifact diff.

    ``severity`` is ``"regression"`` (gates: nonzero exit) or ``"note"``
    (reported, never gates).
    """

    severity: str
    workload: str
    strategy: str
    kind: str
    message: str

    def __str__(self) -> str:
        tag = "REGRESSION" if self.severity == "regression" else "note"
        return (
            f"[{tag}] {self.workload}/{self.strategy}: "
            f"{self.kind}: {self.message}"
        )


def _as_float(value) -> float:
    """Artifact numbers round-trip ``nan`` as ``null``; read both back."""
    if value is None:
        return float("nan")
    if isinstance(value, (int, float)):
        return float(value)
    return float("nan")


def _as_dict(value) -> dict:
    """A dict, or empty when the field is absent or malformed.

    Older artifacts simply lack newer optional sections (pre-provenance
    baselines have no ``ledger``); hand-edited ones may carry the wrong
    shape. Either way the diff must keep working on the fields both
    sides do share, not crash.
    """
    return value if isinstance(value, dict) else {}


def _ledger_counts(record: dict) -> dict | None:
    """A strategy record's ledger event counts, or ``None`` when the
    artifact predates provenance recording (or the section is malformed
    — treated the same: no decision-level data to compare)."""
    counts = _as_dict(record.get("ledger")).get("event_counts")
    if isinstance(counts, dict):
        return counts
    return None


def _quality(record: dict) -> dict | None:
    """A strategy record's estimation-quality section, or ``None`` when
    the artifact predates feedback collection (or the section is
    malformed — same treatment: nothing to compare)."""
    quality = record.get("quality")
    if isinstance(quality, dict):
        return quality
    return None


def _resources(record: dict) -> dict | None:
    """A strategy record's resource roll-up, or ``None`` when the
    artifact predates live telemetry (or the section is malformed —
    same treatment: nothing to compare)."""
    resources = record.get("resources")
    if isinstance(resources, dict):
        return resources
    return None


#: Resource-report keys worth a per-key drift note. Deliberately the
#: deterministic counters only — ``reason``/``state`` drift is already
#: covered by the gated error/dnf checks, and clock fields restate
#: ``backoff_units``.
_RESOURCE_NOTE_KEYS = (
    "rows_in",
    "rows_out",
    "udf_calls",
    "cache_hits",
    "cache_misses",
    "quarantined",
    "retried",
)


def _batch_totals(record: dict) -> dict[str, int] | None:
    """Per-operator batch counts from a record's batch actuals, or
    ``None`` when the record carries none (batch actuals are embedded
    only by instrumented runs)."""
    operators = record.get("operators")
    if not isinstance(operators, list):
        return None
    totals: dict[str, int] = {}
    found = False
    for entry in operators:
        if not isinstance(entry, dict):
            continue
        batch = entry.get("batch")
        if not isinstance(batch, dict):
            continue
        found = True
        label = str(entry.get("node", "?"))
        totals[label] = int(batch.get("batches", 0) or 0)
    return totals if found else None


def _quality_stat(quality: dict, key: str) -> float:
    """One quality stat as a float (``fmt_stat`` strings parse back)."""
    value = quality.get(key)
    try:
        return float(value)
    except (TypeError, ValueError):
        return float("nan")


def _ratio_delta(baseline: float, candidate: float) -> float | None:
    """``(candidate - baseline) / baseline``, or None when undefined."""
    if not math.isfinite(baseline) or not math.isfinite(candidate):
        return None
    if baseline <= 0:
        return None
    return (candidate - baseline) / baseline


def diff_artifacts(
    baseline: dict,
    candidate: dict,
    *,
    max_regress: float = 0.10,
    max_time_regress: float | None = None,
    max_error_widen: float | None = 0.10,
) -> list[Finding]:
    """Compare two run artifacts strategy-by-strategy.

    Gating rules (``severity="regression"``):

    * a strategy's plan fingerprint changed;
    * charged cost grew by more than ``max_regress`` (fractional);
    * estimation error widened (``abs`` grew) by more than
      ``max_error_widen`` (absolute, fractional error units; ``None``
      reports only);
    * planning time grew by more than ``max_time_regress`` (``None`` —
      the default — reports only, because wall-clock is not comparable
      across machines);
    * a baseline strategy disappeared, errored, or flipped to DNF.

    Improvements and newly added strategies are ``note`` findings.
    """
    workload = str(candidate.get("workload", baseline.get("workload", "?")))
    findings: list[Finding] = []

    base_env = _as_dict(baseline.get("environment"))
    cand_env = _as_dict(candidate.get("environment"))
    for key in ("scale", "seed"):
        if base_env.get(key) != cand_env.get(key):
            findings.append(
                Finding(
                    "note",
                    workload,
                    "*",
                    "environment",
                    f"{key} differs ({base_env.get(key)} vs "
                    f"{cand_env.get(key)}); cost comparisons may be "
                    "meaningless",
                )
            )

    base_strategies = _as_dict(baseline.get("strategies"))
    cand_strategies = _as_dict(candidate.get("strategies"))

    for strategy in sorted(set(base_strategies) | set(cand_strategies)):
        base = base_strategies.get(strategy)
        cand = cand_strategies.get(strategy)
        if base is not None and not isinstance(base, dict):
            findings.append(
                Finding(
                    "note", workload, strategy, "malformed",
                    "baseline record is not an object; skipping "
                    "comparisons for this strategy",
                )
            )
            continue
        if cand is not None and not isinstance(cand, dict):
            findings.append(
                Finding(
                    "note", workload, strategy, "malformed",
                    "candidate record is not an object; skipping "
                    "comparisons for this strategy",
                )
            )
            continue
        if base is None:
            findings.append(
                Finding(
                    "note", workload, strategy, "added",
                    "strategy present only in the candidate run",
                )
            )
            continue
        if cand is None:
            findings.append(
                Finding(
                    "regression", workload, strategy, "missing",
                    "strategy present in baseline but absent from the "
                    "candidate run",
                )
            )
            continue

        if not base.get("error") and cand.get("error"):
            findings.append(
                Finding(
                    "regression", workload, strategy, "error",
                    f"optimizer now fails: {cand['error']}",
                )
            )
            continue

        base_print = base.get("fingerprint")
        cand_print = cand.get("fingerprint")
        if base_print and cand_print and base_print != cand_print:
            findings.append(
                Finding(
                    "regression", workload, strategy, "fingerprint",
                    f"chosen plan changed ({base_print} -> {cand_print})",
                )
            )

        if (
            base.get("executed")
            and cand.get("executed")
            and base.get("completed")
            and not cand.get("completed")
        ):
            findings.append(
                Finding(
                    "regression", workload, strategy, "dnf",
                    "plan completed in baseline but hit the cost budget "
                    "(DNF) in the candidate run",
                )
            )

        charged_delta = _ratio_delta(
            _as_float(base.get("charged")), _as_float(cand.get("charged"))
        )
        if charged_delta is not None:
            if charged_delta > max_regress:
                findings.append(
                    Finding(
                        "regression", workload, strategy, "charged",
                        f"charged cost regressed {charged_delta:+.1%} "
                        f"(limit {max_regress:.0%}): "
                        f"{_as_float(base.get('charged')):.1f} -> "
                        f"{_as_float(cand.get('charged')):.1f}",
                    )
                )
            elif charged_delta < -max_regress:
                findings.append(
                    Finding(
                        "note", workload, strategy, "charged",
                        f"charged cost improved {charged_delta:+.1%}",
                    )
                )

        time_delta = _ratio_delta(
            _as_float(base.get("planning_seconds")),
            _as_float(cand.get("planning_seconds")),
        )
        if time_delta is not None:
            if max_time_regress is not None and time_delta > max_time_regress:
                findings.append(
                    Finding(
                        "regression", workload, strategy, "planning_time",
                        f"planning time regressed {time_delta:+.1%} "
                        f"(limit {max_time_regress:.0%})",
                    )
                )
            elif abs(time_delta) > 0.5:
                findings.append(
                    Finding(
                        "note", workload, strategy, "planning_time",
                        f"planning time changed {time_delta:+.1%} "
                        "(wall-clock; not gated by default)",
                    )
                )

        base_err = _as_float(base.get("estimation_error"))
        cand_err = _as_float(cand.get("estimation_error"))
        if math.isfinite(base_err) and math.isfinite(cand_err):
            widened = abs(cand_err) - abs(base_err)
            if max_error_widen is not None and widened > max_error_widen:
                findings.append(
                    Finding(
                        "regression", workload, strategy,
                        "estimation_error",
                        f"cost-model error widened by {widened:+.2f} "
                        f"(|{base_err:+.2f}| -> |{cand_err:+.2f}|, "
                        f"limit {max_error_widen:.2f})",
                    )
                )
            elif widened < -0.05:
                findings.append(
                    Finding(
                        "note", workload, strategy, "estimation_error",
                        f"cost-model error narrowed by {-widened:.2f}",
                    )
                )

        # Decision-level drift: ledger event-count deltas are informational
        # only (never gate) — they surface "the optimizer reasoned
        # differently" even when the chosen plan's fingerprint is stable.
        # Pre-provenance baselines have no ledger at all: say so once as
        # a note instead of silently skipping (or worse, crashing).
        base_counts = _ledger_counts(base)
        cand_counts = _ledger_counts(cand)
        if (base_counts is None) != (cand_counts is None):
            side = "candidate" if base_counts is None else "baseline"
            findings.append(
                Finding(
                    "note", workload, strategy, "ledger",
                    f"provenance ledger recorded only in the {side} run "
                    "(the other artifact predates decision-level "
                    "recording); ledger drift not compared",
                )
            )
        if base_counts and cand_counts:
            for kind in sorted(set(base_counts) | set(cand_counts)):
                before = int(base_counts.get(kind, 0))
                after = int(cand_counts.get(kind, 0))
                if before != after:
                    findings.append(
                        Finding(
                            "note", workload, strategy, "ledger",
                            f"{kind} event count changed "
                            f"{before} -> {after} (informational; "
                            "decision-level drift)",
                        )
                    )

        # Estimation-quality drift: like ledger counts, these sections are
        # informational only. They answer "did our estimates get better or
        # worse?", which is orthogonal to "did the plan change?" — the
        # gated questions above.
        base_quality = _quality(base)
        cand_quality = _quality(cand)
        if (base_quality is None) != (cand_quality is None):
            side = "candidate" if base_quality is None else "baseline"
            findings.append(
                Finding(
                    "note", workload, strategy, "quality",
                    f"estimation-quality section recorded only in the "
                    f"{side} run (the other artifact predates feedback "
                    "collection); quality drift not compared",
                )
            )
        if base_quality is not None and cand_quality is not None:
            base_q = _quality_stat(base_quality, "cost_qerror")
            cand_q = _quality_stat(cand_quality, "cost_qerror")
            if (
                math.isfinite(base_q)
                and math.isfinite(cand_q)
                and abs(cand_q - base_q) > 0.05
            ):
                direction = "worsened" if cand_q > base_q else "improved"
                findings.append(
                    Finding(
                        "note", workload, strategy, "quality",
                        f"plan cost q-error {direction} "
                        f"{base_q:.2f} -> {cand_q:.2f} (informational; "
                        "estimation quality)",
                    )
                )
            base_flags = int(base_quality.get("drift_flags", 0) or 0)
            cand_flags = int(cand_quality.get("drift_flags", 0) or 0)
            if base_flags != cand_flags:
                findings.append(
                    Finding(
                        "note", workload, strategy, "quality",
                        f"statistics drift flags changed "
                        f"{base_flags} -> {cand_flags} (informational; "
                        "observed-vs-declared statistics)",
                    )
                )

        # Runtime-resource drift: like ledger/quality, informational only.
        # A row-vs-vector comparison (or a pre-telemetry baseline) shows
        # up as a one-sided note instead of being silently ignored as an
        # unknown record key; when both sides carry the section, the
        # deterministic counters get per-key deltas.
        base_resources = _resources(base)
        cand_resources = _resources(cand)
        if (base_resources is None) != (cand_resources is None):
            side = "candidate" if base_resources is None else "baseline"
            findings.append(
                Finding(
                    "note", workload, strategy, "resources",
                    f"resource roll-up recorded only in the {side} run "
                    "(the other artifact predates live telemetry); "
                    "resource drift not compared",
                )
            )
        if base_resources is not None and cand_resources is not None:
            for key in _RESOURCE_NOTE_KEYS:
                before = _as_float(base_resources.get(key))
                after = _as_float(cand_resources.get(key))
                if (
                    math.isfinite(before)
                    and math.isfinite(after)
                    and before != after
                ):
                    findings.append(
                        Finding(
                            "note", workload, strategy, "resources",
                            f"{key} changed {before:g} -> {after:g} "
                            "(informational; runtime resources)",
                        )
                    )

        # Batch-granular actuals exist only on instrumented records; a
        # diff against an uninstrumented record is one-sided.
        base_batches = _batch_totals(base)
        cand_batches = _batch_totals(cand)
        if (base_batches is None) != (cand_batches is None):
            side = "candidate" if base_batches is None else "baseline"
            findings.append(
                Finding(
                    "note", workload, strategy, "batch",
                    f"batch actuals recorded only in the {side} run "
                    "(only instrumented runs carry them) — the per-node "
                    "totals remain the gated figures",
                )
            )
        if base_batches is not None and cand_batches is not None:
            for label in sorted(set(base_batches) | set(cand_batches)):
                before_n = base_batches.get(label)
                after_n = cand_batches.get(label)
                if before_n != after_n:
                    findings.append(
                        Finding(
                            "note", workload, strategy, "batch",
                            f"operator {label!r} batch count changed "
                            f"{before_n} -> {after_n} (informational; "
                            "vector batch shape)",
                        )
                    )

    return findings


def has_regressions(findings: list[Finding]) -> bool:
    return any(finding.severity == "regression" for finding in findings)

"""Estimation-quality arithmetic: q-error, drift detection, histograms.

The paper's rank metric ``(selectivity - 1) / cost`` is only as good as
the numbers fed to it, and those numbers come from catalog declarations
that can rot — data skew shifts a pass rate, a UDF's per-call cost drifts
with its inputs, or a fault corrupts the metadata outright. This module
holds the shared arithmetic every consumer of "how wrong were we?" uses:

* :func:`qerror` — the standard multiplicative error metric
  (``max(est/act, act/est)``, 1.0 = perfect), with *explicit* edge
  semantics for zeros and non-finite inputs so no two call sites invent
  their own;
* :func:`signed_relative_error` — the signed companion
  (``(est - act) / act``) used by the bench report's ``est.err`` column;
  it shares qerror's zero and non-finite conventions;
* :func:`qerror_histogram` — log-scale (powers-of-two) bucketing, the
  shape estimation error is conventionally reported in;
* :func:`detect_drift` / :func:`catalog_drift` — compare observed
  statistics (from a feedback store) or declared catalog metadata against
  their domain contracts and a q-error threshold, emitting ``stats.drift``
  events through the existing provenance ledger and tracer machinery.

Drift findings are *observations*, never repairs: the optimizer's
guardrails (:mod:`repro.optimizer.guardrails`) clamp hostile statistics
at plan time; this module merely makes the rot visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs.provenance import NULL_LEDGER
from repro.obs.tracer import NULL_TRACER

#: A q-error above this flags the statistic as drifted. 2.0 — "off by a
#: factor of two in either direction" — is the conventional coarse line
#: between noise and a rank-threatening lie.
DRIFT_QERROR_THRESHOLD = 2.0

#: Histogram buckets cover ``[2^0, 2^1) .. [2^CAP, inf)``; q-errors past
#: ``2^CAP`` share the final bucket (three orders of magnitude is already
#: "the estimate is fiction").
QERROR_BUCKET_CAP = 10


def qerror(estimated: float, actual: float) -> float:
    """The standard q-error: ``max(est/act, act/est)``; 1.0 is perfect.

    Edge semantics, chosen once here so every consumer agrees:

    * either side ``nan`` or negative → ``nan`` (no error magnitude is
      defined; negative estimates/actuals are domain violations, not
      large errors);
    * both zero → ``1.0`` (a zero estimate of a zero actual is perfect);
    * exactly one zero → ``inf`` (the multiplicative error is unbounded);
    * both infinite → ``nan`` (``inf/inf`` is indeterminate);
    * one infinite → ``inf``.
    """
    if math.isnan(estimated) or math.isnan(actual):
        return float("nan")
    if estimated < 0 or actual < 0:
        return float("nan")
    if math.isinf(estimated) and math.isinf(actual):
        return float("nan")
    if estimated == 0 and actual == 0:
        return 1.0
    if estimated == 0 or actual == 0:
        return float("inf")
    if math.isinf(estimated) or math.isinf(actual):
        return float("inf")
    return max(estimated / actual, actual / estimated)


def signed_relative_error(estimated: float, actual: float) -> float:
    """Signed relative error ``(estimated - actual) / actual``.

    The signed companion to :func:`qerror`, sharing its zero and
    non-finite conventions: a zero actual with a zero estimate is a
    *perfect* estimate (``0.0``); a zero actual against a nonzero
    estimate is ``nan`` (relative error against zero is undefined, and
    reporting it as infinite would poison aggregates); negative or
    ``nan`` actuals are ``nan``. These are exactly the conventions the
    bench report's ``est.err`` column has always used — committed
    ``BENCH_*.json`` baselines gate on the values bit-for-bit.
    """
    if math.isnan(estimated) or math.isnan(actual):
        return float("nan")
    if actual == 0:
        return 0.0 if estimated == 0 else float("nan")
    if actual < 0:
        return float("nan")
    return (estimated - actual) / actual


def qerror_histogram(values) -> dict[str, int]:
    """Log-scale histogram of q-errors: powers-of-two buckets.

    Keys are emitted in ascending bucket order (then ``inf``), only for
    non-empty buckets, so the dict serialises deterministically. ``nan``
    values (undefined errors) are skipped — they carry no magnitude to
    bucket — and q-errors below 1 (impossible from :func:`qerror`, but
    callers may feed raw ratios) clamp into the first bucket. Bucket
    labels are :class:`~repro.obs.histograms.StreamingHistogram`'s, plus
    the open-ended ``>=2^CAP`` bucket.
    """
    # Imported here: the histograms module imports this one.
    from repro.obs.histograms import _bucket_label

    counts: dict[int, int] = {}
    infinite = 0
    for value in values:
        if math.isnan(value):
            continue
        if math.isinf(value):
            infinite += 1
            continue
        power = 0 if value < 2.0 else int(math.log2(value))
        counts[min(power, QERROR_BUCKET_CAP)] = (
            counts.get(min(power, QERROR_BUCKET_CAP), 0) + 1
        )
    histogram = {
        (
            _bucket_label(power)
            if power < QERROR_BUCKET_CAP
            else f">={2 ** QERROR_BUCKET_CAP}"
        ): counts[power]
        for power in sorted(counts)
    }
    if infinite:
        histogram["inf"] = infinite
    return histogram


def fmt_stat(value: float) -> str | float:
    """JSON- and ledger-safe rendering of a possibly non-finite float.

    Finite floats pass through unchanged (so JSON keeps them numeric);
    non-finite ones become their ``float()``-parseable names, which
    survives strict-JSON round trips (strict JSON has no ``NaN``).
    """
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def valid_selectivity(value: float) -> bool:
    """Selectivities are pass rates: finite and within ``[0, 1]``."""
    return math.isfinite(value) and 0.0 <= value <= 1.0


def valid_cost(value: float) -> bool:
    """Per-call costs are charges: finite and non-negative."""
    return math.isfinite(value) and value >= 0.0


@dataclass(frozen=True)
class DriftFinding:
    """One statistic that disagrees with its declaration.

    ``reason`` is ``"invalid-declared"`` (the declared value violates its
    domain contract — no observation needed to know it lies) or
    ``"qerror"`` (declared and observed are both legitimate values, but
    their q-error exceeds the threshold). ``observed`` and ``qerror`` are
    ``nan`` when no observation backs the finding.
    """

    subject: str
    field: str  # "selectivity" | "cost_per_call"
    declared: float
    observed: float = float("nan")
    qerror: float = float("nan")
    reason: str = "qerror"

    def describe(self) -> str:
        declared = fmt_stat(self.declared)
        declared = (
            f"{declared:g}" if isinstance(declared, float) else declared
        )
        if self.reason == "invalid-declared":
            return (
                f"{self.subject}: declared {self.field} {declared} is "
                f"outside its domain (no observation needed)"
            )
        observed = fmt_stat(self.observed)
        observed = (
            f"{observed:g}" if isinstance(observed, float) else observed
        )
        q = fmt_stat(self.qerror)
        q = f"{q:.2f}" if isinstance(q, float) else q
        return (
            f"{self.subject}: {self.field} declared {declared} but "
            f"observed {observed} (q-error {q})"
        )

    def as_dict(self) -> dict:
        return {
            "subject": self.subject,
            "field": self.field,
            "declared": fmt_stat(self.declared),
            "observed": fmt_stat(self.observed),
            "qerror": fmt_stat(self.qerror),
            "reason": self.reason,
        }


def _emit(findings, ledger, tracer) -> None:
    """Record each finding as a ``stats.drift`` ledger/trace event."""
    for finding in findings:
        if ledger.enabled:
            ledger.record(
                "stats.drift",
                subject=finding.subject,
                field=finding.field,
                declared=fmt_stat(finding.declared),
                observed=fmt_stat(finding.observed),
                qerror=fmt_stat(finding.qerror),
                reason=finding.reason,
            )
        if tracer.enabled:
            tracer.event(
                "stats.drift",
                subject=finding.subject,
                field=finding.field,
                declared=fmt_stat(finding.declared),
                observed=fmt_stat(finding.observed),
                qerror=fmt_stat(finding.qerror),
                reason=finding.reason,
            )


def detect_drift(
    observations,
    threshold: float = DRIFT_QERROR_THRESHOLD,
    ledger=NULL_LEDGER,
    tracer=NULL_TRACER,
) -> list[DriftFinding]:
    """Compare observed predicate statistics against their declarations.

    ``observations`` are duck-typed
    :class:`~repro.obs.feedback.PredicateObservation` objects (attributes
    ``predicate``, ``declared_selectivity`` / ``declared_cost_per_call``,
    ``observed_selectivity`` / ``observed_cost_per_call``, ``evaluated``,
    ``charged_calls``). Two rules per field:

    * a declared value outside its domain is flagged unconditionally
      (``invalid-declared`` — it lies whether or not we ran anything);
    * a legitimate declared value is flagged when its q-error against the
      observation exceeds ``threshold`` (only fields that were actually
      observed: ``evaluated > 0`` for selectivity, ``charged_calls > 0``
      for per-call cost).

    Findings are emitted as ``stats.drift`` events on the given ledger
    and tracer (null-object defaults: zero overhead when unwired).
    """
    findings: list[DriftFinding] = []
    for obs in observations:
        subject = obs.predicate
        declared_sel = obs.declared_selectivity
        if not valid_selectivity(declared_sel):
            findings.append(
                DriftFinding(
                    subject=subject,
                    field="selectivity",
                    declared=declared_sel,
                    reason="invalid-declared",
                )
            )
        elif obs.evaluated > 0:
            q = qerror(declared_sel, obs.observed_selectivity)
            if q > threshold:
                findings.append(
                    DriftFinding(
                        subject=subject,
                        field="selectivity",
                        declared=declared_sel,
                        observed=obs.observed_selectivity,
                        qerror=q,
                    )
                )
        declared_cost = obs.declared_cost_per_call
        if not valid_cost(declared_cost):
            findings.append(
                DriftFinding(
                    subject=subject,
                    field="cost_per_call",
                    declared=declared_cost,
                    reason="invalid-declared",
                )
            )
        elif obs.charged_calls > 0:
            q = qerror(declared_cost, obs.observed_cost_per_call)
            if q > threshold:
                findings.append(
                    DriftFinding(
                        subject=subject,
                        field="cost_per_call",
                        declared=declared_cost,
                        observed=obs.observed_cost_per_call,
                        qerror=q,
                    )
                )
    _emit(findings, ledger, tracer)
    return findings


def catalog_drift(
    catalog,
    names=None,
    ledger=NULL_LEDGER,
    tracer=NULL_TRACER,
) -> list[DriftFinding]:
    """Flag catalog UDF declarations that violate their domain contracts.

    The no-observations half of drift detection: a ``nan`` selectivity or
    a negative per-call cost lies regardless of what ran, so corrupted
    catalog metadata (e.g. a chaos ``corrupt-stats`` fault) is detectable
    before — or without — executing anything. ``names`` restricts the
    sweep (default: every registered function). Findings emit
    ``stats.drift`` events like :func:`detect_drift`.
    """
    findings: list[DriftFinding] = []
    for name in names if names is not None else catalog.functions.names():
        function = catalog.functions.get(name)
        if not valid_selectivity(function.selectivity):
            findings.append(
                DriftFinding(
                    subject=name,
                    field="selectivity",
                    declared=function.selectivity,
                    reason="invalid-declared",
                )
            )
        if not valid_cost(function.cost_per_call):
            findings.append(
                DriftFinding(
                    subject=name,
                    field="cost_per_call",
                    declared=function.cost_per_call,
                    reason="invalid-declared",
                )
            )
    _emit(findings, ledger, tracer)
    return findings


def quality_summary(
    estimated_cost: float,
    charged: float,
    observations,
    threshold: float = DRIFT_QERROR_THRESHOLD,
) -> dict:
    """The estimation-quality section embedded in ``BENCH_*.json``.

    One dict per strategy: the plan-level cost q-error (estimate vs the
    charge actually measured), the per-predicate selectivity q-error
    histogram and maximum, and the drift-flag count — everything
    ``bench-diff`` reports as non-gating notes.
    """
    sel_qerrors = [
        qerror(obs.declared_selectivity, obs.observed_selectivity)
        for obs in observations
        if obs.evaluated > 0
    ]
    finite = [q for q in sel_qerrors if math.isfinite(q)]
    findings = detect_drift(observations, threshold=threshold)
    return {
        "cost_qerror": fmt_stat(qerror(estimated_cost, charged)),
        "predicates_observed": len(observations),
        "selectivity_qerror_max": fmt_stat(
            max(finite) if finite else float("nan")
        ),
        "selectivity_qerror_histogram": qerror_histogram(sel_qerrors),
        "drift_flags": len(findings),
        "drift": [finding.as_dict() for finding in findings],
    }

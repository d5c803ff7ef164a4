"""The shared q-error helper, drift detector, and quality summaries.

:mod:`repro.obs.quality` owns the edge semantics every consumer of
"how wrong were we?" shares — these tests pin them down, including the
zero/zero and non-finite corners the module docstring promises.
"""

import math

import pytest

from repro.obs.provenance import ProvenanceLedger
from repro.obs.quality import (
    DRIFT_QERROR_THRESHOLD,
    QERROR_BUCKET_CAP,
    DriftFinding,
    catalog_drift,
    detect_drift,
    fmt_stat,
    qerror,
    qerror_histogram,
    quality_summary,
    signed_relative_error,
    valid_cost,
    valid_selectivity,
)
from repro.obs.tracer import Tracer

NAN = float("nan")
INF = float("inf")


# -- qerror -------------------------------------------------------------------


def test_qerror_perfect_is_one():
    assert qerror(10.0, 10.0) == 1.0


def test_qerror_symmetric():
    assert qerror(2.0, 8.0) == qerror(8.0, 2.0) == 4.0


def test_qerror_both_zero_is_perfect():
    assert qerror(0.0, 0.0) == 1.0


def test_qerror_one_zero_is_infinite():
    assert qerror(0.0, 5.0) == INF
    assert qerror(5.0, 0.0) == INF


def test_qerror_nan_propagates():
    assert math.isnan(qerror(NAN, 1.0))
    assert math.isnan(qerror(1.0, NAN))


def test_qerror_negative_is_undefined():
    assert math.isnan(qerror(-1.0, 2.0))
    assert math.isnan(qerror(2.0, -1.0))


def test_qerror_both_infinite_is_undefined():
    assert math.isnan(qerror(INF, INF))


def test_qerror_one_infinite_is_infinite():
    assert qerror(INF, 3.0) == INF
    assert qerror(3.0, INF) == INF


# -- signed_relative_error ----------------------------------------------------


def test_signed_error_matches_legacy_convention():
    # The bench report's est.err column: (estimated - actual) / actual.
    assert signed_relative_error(120.0, 100.0) == pytest.approx(0.2)
    assert signed_relative_error(50.0, 100.0) == pytest.approx(-0.5)


def test_signed_error_zero_actual():
    assert signed_relative_error(0.0, 0.0) == 0.0
    assert math.isnan(signed_relative_error(5.0, 0.0))


def test_signed_error_negative_or_nan_actual():
    assert math.isnan(signed_relative_error(1.0, -2.0))
    assert math.isnan(signed_relative_error(NAN, 1.0))
    assert math.isnan(signed_relative_error(1.0, NAN))


# -- histogram ----------------------------------------------------------------


def test_histogram_buckets_powers_of_two():
    histogram = qerror_histogram([1.0, 1.5, 2.0, 3.9, 4.0, 1100.0])
    assert histogram == {"[1,2)": 2, "[2,4)": 2, "[4,8)": 1, ">=1024": 1}


def test_histogram_skips_nan_counts_inf():
    histogram = qerror_histogram([NAN, INF, INF, 1.0])
    assert histogram == {"[1,2)": 1, "inf": 2}


def test_histogram_empty():
    assert qerror_histogram([]) == {}


def test_histogram_key_order_is_ascending():
    histogram = qerror_histogram([512.0, 2.0, 1.0, INF])
    assert list(histogram) == ["[1,2)", "[2,4)", "[512,1024)", "inf"]


# -- fmt_stat / domain predicates --------------------------------------------


def test_histogram_labels_every_bucket():
    """Every bucket label, the open-ended ``>=2^CAP`` one included:
    ``[2^p,2^(p+1))`` with integer bounds."""
    values = [float(2**power) for power in range(QERROR_BUCKET_CAP + 2)]
    expected = [
        f"[{2**power},{2**(power + 1)})"
        for power in range(QERROR_BUCKET_CAP)
    ] + [f">={2**QERROR_BUCKET_CAP}"]
    histogram = qerror_histogram(values)
    assert list(histogram) == expected
    assert histogram[f">={2**QERROR_BUCKET_CAP}"] == 2


def test_fmt_stat_round_trips_non_finite():
    for value in (NAN, INF, -INF):
        encoded = fmt_stat(value)
        assert isinstance(encoded, str)
        decoded = float(encoded)
        assert math.isnan(decoded) or decoded == value
    assert fmt_stat(0.25) == 0.25


def test_domain_predicates():
    assert valid_selectivity(0.0) and valid_selectivity(1.0)
    assert not valid_selectivity(-0.1)
    assert not valid_selectivity(3.0)
    assert not valid_selectivity(NAN)
    assert valid_cost(0.0) and valid_cost(100.0)
    assert not valid_cost(-1.0)
    assert not valid_cost(INF)


# -- drift detection ----------------------------------------------------------


class FakeObservation:
    """Duck-typed stand-in for a PredicateObservation."""

    def __init__(
        self,
        predicate="p(x)",
        declared_selectivity=0.5,
        observed_selectivity=0.5,
        evaluated=10,
        declared_cost_per_call=10.0,
        observed_cost_per_call=10.0,
        charged_calls=10,
    ):
        self.predicate = predicate
        self.declared_selectivity = declared_selectivity
        self.observed_selectivity = observed_selectivity
        self.evaluated = evaluated
        self.declared_cost_per_call = declared_cost_per_call
        self.observed_cost_per_call = observed_cost_per_call
        self.charged_calls = charged_calls


def test_detect_drift_quiet_when_accurate():
    assert detect_drift([FakeObservation()]) == []


def test_detect_drift_exactly_at_threshold_is_quiet():
    obs = FakeObservation(
        declared_selectivity=0.2,
        observed_selectivity=0.2 * DRIFT_QERROR_THRESHOLD,
    )
    assert detect_drift([obs]) == []


def test_detect_drift_just_past_threshold_fires():
    obs = FakeObservation(
        declared_selectivity=0.1, observed_selectivity=0.21
    )
    findings = detect_drift([obs])
    assert [f.field for f in findings] == ["selectivity"]
    assert findings[0].reason == "qerror"
    assert findings[0].qerror == pytest.approx(2.1)


def test_detect_drift_cost_field():
    obs = FakeObservation(
        declared_cost_per_call=10.0, observed_cost_per_call=100.0
    )
    findings = detect_drift([obs])
    assert [f.field for f in findings] == ["cost_per_call"]


def test_detect_drift_respects_custom_threshold():
    obs = FakeObservation(
        declared_selectivity=0.1, observed_selectivity=0.15
    )
    assert detect_drift([obs]) == []
    findings = detect_drift([obs], threshold=1.2)
    assert len(findings) == 1


def test_detect_drift_ignores_unobserved_fields():
    obs = FakeObservation(
        observed_selectivity=NAN,
        evaluated=0,
        observed_cost_per_call=NAN,
        charged_calls=0,
    )
    assert detect_drift([obs]) == []


def test_detect_drift_invalid_declared_needs_no_observation():
    obs = FakeObservation(
        declared_selectivity=NAN,
        evaluated=0,
        observed_selectivity=NAN,
        declared_cost_per_call=-5.0,
        charged_calls=0,
        observed_cost_per_call=NAN,
    )
    findings = detect_drift([obs])
    assert sorted(f.field for f in findings) == [
        "cost_per_call",
        "selectivity",
    ]
    assert all(f.reason == "invalid-declared" for f in findings)


def test_detect_drift_emits_ledger_and_trace_events():
    ledger = ProvenanceLedger()
    tracer = Tracer()
    obs = FakeObservation(
        declared_selectivity=0.1, observed_selectivity=0.9
    )
    with tracer.span("test"):
        findings = detect_drift([obs], ledger=ledger, tracer=tracer)
    assert len(findings) == 1
    events = [e for e in ledger.events if e.kind == "stats.drift"]
    assert len(events) == 1
    assert events[0].data["subject"] == "p(x)"
    assert events[0].data["field"] == "selectivity"
    span = tracer.spans[0]
    assert any(e["name"] == "stats.drift" for e in span.events)


def test_finding_describe_mentions_both_values():
    finding = DriftFinding(
        subject="p(x)", field="selectivity", declared=0.1,
        observed=0.9, qerror=9.0,
    )
    text = finding.describe()
    assert "p(x)" in text and "0.1" in text and "0.9" in text


# -- catalog_drift ------------------------------------------------------------


def _catalog_with(selectivity, cost):
    from repro.catalog.catalog import Catalog

    catalog = Catalog()
    catalog.functions.register(
        "f", cost_per_call=cost, selectivity=selectivity,
        fn=lambda value: True,
    )
    return catalog


def test_catalog_drift_clean():
    assert catalog_drift(_catalog_with(0.5, 10.0)) == []


def test_catalog_drift_flags_corrupted_declarations():
    findings = catalog_drift(_catalog_with(NAN, -INF))
    assert sorted(f.field for f in findings) == [
        "cost_per_call",
        "selectivity",
    ]
    assert all(f.reason == "invalid-declared" for f in findings)
    assert all(f.subject == "f" for f in findings)


def test_catalog_drift_respects_names_filter():
    catalog = _catalog_with(NAN, 10.0)
    assert catalog_drift(catalog, names=[]) == []
    assert len(catalog_drift(catalog, names=["f"])) == 1


# -- quality_summary ----------------------------------------------------------


def test_quality_summary_shape():
    obs = FakeObservation(
        declared_selectivity=0.1, observed_selectivity=0.4
    )
    summary = quality_summary(1000.0, 1100.0, [obs])
    assert summary["cost_qerror"] == pytest.approx(1.1)
    assert summary["predicates_observed"] == 1
    assert summary["selectivity_qerror_max"] == pytest.approx(4.0)
    assert summary["selectivity_qerror_histogram"] == {"[4,8)": 1}
    assert summary["drift_flags"] == 1
    assert summary["drift"][0]["field"] == "selectivity"


def test_quality_summary_serialises_non_finite():
    import json

    obs = FakeObservation(
        declared_selectivity=0.1,
        observed_selectivity=0.0,  # q-error inf
    )
    summary = quality_summary(0.0, 100.0, [obs])
    # Strict JSON (allow_nan=False) must accept the whole section.
    encoded = json.dumps(summary, allow_nan=False)
    assert '"inf"' in encoded

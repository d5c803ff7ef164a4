"""The Prometheus-text / JSON metrics export surface.

Exposition-format conformance (name sanitisation, label escaping,
cumulative ``le`` buckets, non-finite spellings), the kind-conflict
guard, the registry and monitor assembly paths, and byte-stability of
the rendered text across fresh interpreters with differing
``PYTHONHASHSEED`` (the same subprocess pattern as the feedback store).
"""

import json
import math
import os
import subprocess
import sys

import pytest

from repro import Executor, build_database, optimize
from repro.bench.workloads import build_workload
from repro.errors import ArtifactError
from repro.obs.export import (
    PrometheusExport,
    _escape_label,
    _sanitize_name,
    build_export,
    export_metrics,
)
from repro.obs.histograms import StreamingHistogram
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime_telemetry import RuntimeMonitor

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


# -- exposition-format conformance -------------------------------------------


def test_name_sanitisation():
    assert _sanitize_name("query.progress") == "repro_query_progress"
    assert _sanitize_name("exec rows/sec") == "repro_exec_rows_sec"
    assert _sanitize_name("9lives") == "repro__9lives"


def test_label_escaping():
    assert _escape_label('a"b') == 'a\\"b'
    assert _escape_label("a\\b") == "a\\\\b"
    assert _escape_label("a\nb") == "a\\nb"


def test_gauge_rendering_with_labels_and_nonfinite():
    export = PrometheusExport()
    export.gauge("x.y", 1.5, help_text="help", strategy='pu"sh')
    export.gauge("x.y", math.nan, strategy="b")
    export.gauge("x.y", math.inf, strategy="c")
    text = export.render()
    assert "# HELP repro_x_y help" in text
    assert "# TYPE repro_x_y gauge" in text
    assert 'repro_x_y{strategy="pu\\"sh"} 1.5' in text
    assert 'repro_x_y{strategy="b"} NaN' in text
    assert 'repro_x_y{strategy="c"} +Inf' in text
    assert text.endswith("\n")


def test_histogram_rendering_cumulative_le():
    histogram = StreamingHistogram()
    for value in (0.0, 1.0, 1.5, 4.0, math.inf):
        histogram.observe(value)
    export = PrometheusExport()
    export.histogram("cost", histogram, op="scan")
    lines = export.render().splitlines()
    assert "# TYPE repro_cost histogram" in lines
    assert 'repro_cost_bucket{le="2",op="scan"} 3' in lines
    assert 'repro_cost_bucket{le="8",op="scan"} 4' in lines
    assert 'repro_cost_bucket{le="+Inf",op="scan"} 5' in lines
    assert 'repro_cost_sum{op="scan"} 6.5' in lines
    assert 'repro_cost_count{op="scan"} 5' in lines


def test_kind_conflict_raises():
    export = PrometheusExport()
    export.gauge("metric", 1.0)
    with pytest.raises(ArtifactError):
        export.histogram("metric", StreamingHistogram())


def test_series_sorted_by_label_set_not_insertion():
    export = PrometheusExport()
    export.gauge("g", 2.0, strategy="zeta")
    export.gauge("g", 1.0, strategy="alpha")
    text = export.render()
    assert text.index('strategy="alpha"') < text.index('strategy="zeta"')


def test_as_json_strict_safe_round_trip():
    export = PrometheusExport()
    export.gauge("g", math.nan, strategy="a")
    histogram = StreamingHistogram()
    histogram.observe(2.0)
    export.histogram("h", histogram)
    encoded = json.dumps(export.as_json(), allow_nan=False, sort_keys=True)
    document = json.loads(encoded)
    assert document["families"]["repro_g"]["series"][0]["value"] == "nan"
    assert document["families"]["repro_h"]["series"][0]["value"]["count"] == 1


# -- assembly from registry and monitors -------------------------------------


def _executed_monitor(db, workload_key="q1", strategy="pushdown"):
    workload = build_workload(db, workload_key)
    optimized = optimize(db, workload.query, strategy=strategy)
    monitor = RuntimeMonitor()
    Executor(db, listeners=(monitor,)).execute(optimized.plan)
    return monitor


@pytest.fixture(scope="module")
def db():
    return build_database(scale=5, seed=42)


def test_build_export_registry_gauges():
    registry = MetricsRegistry()
    registry.counter("exec.rows").incr(5)
    registry.gauge("plan.cost", 12.5)
    text = build_export(registry=registry).render()
    assert "repro_exec_rows 5" in text
    assert "repro_plan_cost 12.5" in text


def test_build_export_monitor_families(db):
    monitor = _executed_monitor(db)
    export = build_export(monitors={"pushdown": monitor})
    text = export.render()
    assert 'repro_query_progress{strategy="pushdown"} 1' in text
    assert "repro_operator_rows_out" in text
    assert "repro_operator_pull_seconds_bucket" in text
    assert "repro_predicate_cost" in text
    document = export.as_json()
    assert "repro_operator_fraction_done" in document["families"]


def test_build_export_empty_label_unlabelled(db):
    monitor = _executed_monitor(db)
    text = build_export(monitors={"": monitor}).render()
    assert "repro_query_progress 1" in text


def test_export_metrics_file_formats(db, tmp_path):
    monitor = _executed_monitor(db)
    export = build_export(monitors={"": monitor})
    text_target = export_metrics(tmp_path / "m.prom", export)
    json_target = export_metrics(tmp_path / "m.json", export)
    assert text_target.read_text().startswith("# ")
    document = json.loads(json_target.read_text())
    assert document["namespace"] == "repro"


# -- byte-stability across hash seeds ----------------------------------------


_DETERMINISM_SCRIPT = """
import sys

from repro import build_database, optimize
from repro.bench.workloads import build_workload
from repro.cost.model import CostModel
from repro.obs import RuntimeMonitor, build_export

db = build_database(scale=5, seed=42)
workload = build_workload(db, "q1")
optimized = optimize(db, workload.query, strategy="pushdown")
monitor = RuntimeMonitor()
monitor.attach(optimized.plan, CostModel(db.catalog, db.params))
# Drive the monitor with fixed latencies so even the wall-clock
# histograms are reproducible.
for node in optimized.plan.root.walk():
    monitor.on_open(node)
    for _ in range(3):
        monitor.on_batch(id(node), 1, 0.5, (0.0, 0.0, 0.0, 0))
    monitor.on_done(id(node), 0.25, (0.0, 0.0, 0.0, 0))
monitor.complete()
sys.stdout.write(build_export(monitors={"q1": monitor}).render())
"""


def _render_in_subprocess(hash_seed: str) -> str:
    environment = dict(os.environ)
    environment["PYTHONHASHSEED"] = hash_seed
    environment["PYTHONPATH"] = SRC
    completed = subprocess.run(
        [sys.executable, "-c", _DETERMINISM_SCRIPT],
        capture_output=True,
        text=True,
        env=environment,
        check=True,
    )
    return completed.stdout


def test_render_byte_stable_across_hash_seeds():
    first = _render_in_subprocess("0")
    second = _render_in_subprocess("431")
    assert first == second
    assert "repro_query_progress" in first

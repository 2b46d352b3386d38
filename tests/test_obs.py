"""Tests of the observability layer (``repro.obs``).

Pins the two external contracts: the Prometheus text exposition format
(0.0.4 — parseable series, escaped labels, cumulative monotone ``le``
buckets closed by ``+Inf``) and the histogram percentile estimator,
whose error against ``np.percentile`` must stay within one bucket width
by construction.  Also covers the kill switch, registry idempotency,
and span nesting/sink behaviour — the properties every instrumented
subsystem relies on.
"""

from __future__ import annotations

import json
import math
import re
import threading

import numpy as np
import pytest

from repro.obs import configure_trace
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    log_buckets,
    set_enabled,
)
from repro.obs.trace import Tracer

# A text-format sample line: name{labels} value
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})? (?P<value>\S+)$"
)


def _parse_exposition(text: str):
    """Parse text format 0.0.4 into (types, samples); raise on bad lines."""
    types = {}
    samples = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            types[name] = kind
            continue
        match = _SAMPLE_RE.match(line)
        assert match is not None, f"unparseable sample line: {line!r}"
        samples.append(
            (match["name"], match["labels"] or "", float(match["value"]))
        )
    return types, samples


@pytest.fixture()
def registry() -> MetricsRegistry:
    return MetricsRegistry()


# --------------------------------------------------------------------- #
# registry basics
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_counter_gauge_roundtrip(self, registry):
        requests = registry.counter("t_requests_total", "Requests.", ["mode"])
        requests.labels(mode="clean").inc()
        requests.labels(mode="clean").inc(2)
        requests.labels(mode="faulty").inc()
        assert registry.value("t_requests_total", mode="clean") == 3
        assert registry.value("t_requests_total", mode="faulty") == 1
        assert registry.value("t_requests_total", mode="absent") == 0.0

        depth = registry.gauge("t_depth", "Depth.")
        depth.set(5)
        depth.dec(2)
        assert depth.value == 3

    def test_families_are_idempotent(self, registry):
        first = registry.counter("t_total", "Help.", ["a"])
        again = registry.counter("t_total", "Help.", ["a"])
        assert first is again

    def test_kind_and_label_mismatches_raise(self, registry):
        registry.counter("t_total", "Help.", ["a"])
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("t_total", "Help.", ["a"])
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("t_total", "Help.", ["b"])

    def test_label_names_validated_at_lookup(self, registry):
        family = registry.counter("t_total", "Help.", ["a"])
        with pytest.raises(ValueError, match="expects labels"):
            family.labels(b="x")
        with pytest.raises(ValueError, match="is labeled"):
            family.inc()

    def test_invalid_metric_names_rejected(self, registry):
        for bad in ("", "9starts_with_digit", "has-dash", "has space"):
            with pytest.raises(ValueError, match="invalid metric name"):
                registry.counter(bad, "Help.")

    def test_counters_refuse_decrements(self, registry):
        counter = registry.counter("t_total", "Help.")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_counter_set_to_is_monotonic(self, registry):
        counter = registry.counter("t_total", "Help.")
        counter._unlabeled().set_to(10)
        counter._unlabeled().set_to(4)  # a source reset must not regress
        assert counter.value == 10

    def test_kill_switch_stops_recording(self, registry):
        counter = registry.counter("t_total", "Help.")
        histogram = registry.histogram("t_seconds", "Help.")
        try:
            assert set_enabled(False) is False
            counter.inc()
            histogram.observe(1.0)
            assert counter.value == 0
            assert histogram._unlabeled().count == 0
        finally:
            set_enabled(None)  # restore from the environment
        counter.inc()
        assert counter.value == 1

    def test_concurrent_increments_are_lossless(self, registry):
        counter = registry.counter("t_total", "Help.")
        child = counter._unlabeled()

        def hammer():
            for _ in range(1000):
                child.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000

    def test_snapshot_is_json_ready(self, registry):
        registry.counter("t_total", "Help.", ["mode"]).labels(mode="a").inc()
        registry.histogram("t_seconds", "Help.").observe(0.01)
        snapshot = registry.snapshot()
        encoded = json.loads(json.dumps(snapshot))
        assert encoded["t_total"]["kind"] == "counter"
        assert encoded["t_total"]["series"]["mode=a"] == 1
        series = encoded["t_seconds"]["series"][""]
        assert series["count"] == 1
        assert series["min"] == series["max"] == 0.01
        assert series["buckets"]["+Inf"] == 1


# --------------------------------------------------------------------- #
# histograms
# --------------------------------------------------------------------- #
class TestHistogram:
    def test_log_buckets_shape(self):
        bounds = log_buckets(1e-3, 1.0, per_decade=2)
        assert bounds[0] == pytest.approx(1e-3)
        assert bounds[-1] >= 1.0
        assert all(b > a for a, b in zip(bounds, bounds[1:]))
        with pytest.raises(ValueError):
            log_buckets(0.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(1.0, 1.0)

    @pytest.mark.parametrize("q", [50, 95, 99])
    def test_percentiles_within_one_bucket_width(self, registry, q):
        """The estimator lands in the true percentile's bucket, so its
        error is bounded by that bucket's width."""
        rng = np.random.default_rng(7)
        samples = rng.lognormal(mean=-4.0, sigma=1.5, size=5000)
        histogram = registry.histogram(
            "t_seconds", "Help.", buckets=log_buckets(1e-5, 100.0, 4)
        )
        child = histogram._unlabeled()
        for value in samples:
            child.observe(value)
        truth = float(np.percentile(samples, q))
        estimate = child.percentile(q)
        bounds = histogram.buckets
        index = int(np.searchsorted(bounds, truth))
        lower = bounds[index - 1] if index > 0 else 0.0
        upper = bounds[index] if index < len(bounds) else math.inf
        width = upper - lower
        assert abs(estimate - truth) <= width
        # Both land in the same bucket.
        assert lower <= estimate <= upper

    def test_percentile_of_empty_and_single(self, registry):
        histogram = registry.histogram("t_seconds", "Help.")
        child = histogram._unlabeled()
        assert child.percentile(50) == 0.0
        child.observe(0.02)
        assert child.percentile(50) == pytest.approx(0.02, rel=0.8)
        assert child.count == 1
        assert child.sum == pytest.approx(0.02)

    def test_bad_buckets_rejected(self, registry):
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("t_seconds", "Help.", buckets=[1.0, 1.0, 2.0])


# --------------------------------------------------------------------- #
# Prometheus exposition
# --------------------------------------------------------------------- #
class TestPrometheusRendering:
    def test_content_type_pinned(self):
        assert PROMETHEUS_CONTENT_TYPE == (
            "text/plain; version=0.0.4; charset=utf-8"
        )

    def test_exposition_parses(self, registry):
        registry.counter("t_total", "Requests.", ["mode"]).labels(
            mode="clean"
        ).inc(3)
        registry.gauge("t_depth", "Depth.").set(2.5)
        registry.histogram("t_seconds", "Latency.").observe(0.01)
        types, samples = _parse_exposition(registry.render_prometheus())
        assert types == {
            "t_total": "counter",
            "t_depth": "gauge",
            "t_seconds": "histogram",
        }
        by_name = {}
        for name, labels, value in samples:
            by_name.setdefault(name, []).append((labels, value))
        assert by_name["t_total"] == [('{mode="clean"}', 3.0)]
        assert by_name["t_depth"] == [("", 2.5)]
        assert by_name["t_seconds_count"] == [("", 1.0)]
        assert by_name["t_seconds_sum"] == [("", 0.01)]

    def test_label_values_escaped(self, registry):
        family = registry.counter("t_total", "Help.", ["path"])
        family.labels(path='a\\b"c\nd').inc()
        text = registry.render_prometheus()
        assert 't_total{path="a\\\\b\\"c\\nd"} 1' in text

    def test_help_text_escaped(self, registry):
        registry.counter("t_total", "line one\nline two \\ done").inc()
        text = registry.render_prometheus()
        assert "# HELP t_total line one\\nline two \\\\ done" in text

    def test_histogram_buckets_cumulative_and_closed(self, registry):
        histogram = registry.histogram(
            "t_seconds", "Help.", buckets=log_buckets(1e-3, 10.0, 2)
        )
        child = histogram._unlabeled()
        for value in (0.0005, 0.002, 0.002, 0.5, 1e9):  # incl. overflow
            child.observe(value)
        _, samples = _parse_exposition(registry.render_prometheus())
        buckets = [
            (labels, value)
            for name, labels, value in samples
            if name == "t_seconds_bucket"
        ]
        les = [
            float(labels.split('le="')[1].rstrip('"}').replace("+Inf", "inf"))
            for labels, _ in buckets
        ]
        counts = [value for _, value in buckets]
        assert les == sorted(les)
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert les[-1] == math.inf
        count = next(
            value for name, _, value in samples if name == "t_seconds_count"
        )
        assert counts[-1] == count == 5

    def test_families_without_samples_are_omitted(self, registry):
        registry.counter("t_never_used_total", "Help.", ["mode"])
        assert registry.render_prometheus() == "\n"


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #
class TestTracing:
    def test_span_nesting_builds_parent_chain(self, registry):
        tracer = Tracer(registry=registry)
        events = []
        with tracer.span("outer") as outer:
            with tracer.span("inner", key="value") as inner:
                events.append(dict(inner))
            events.append(dict(outer))
        outer_event, inner_event = events[1], events[0]
        assert outer_event["parent_id"] is None
        assert inner_event["parent_id"] == outer_event["span_id"]
        assert inner_event["attributes"] == {"key": "value"}

    def test_span_durations_and_histogram(self, registry):
        tracer = Tracer(registry=registry)
        with tracer.span("timed"):
            pass
        family = registry.get("softsnn_span_seconds")
        child = family.labels(name="timed")
        assert child.count == 1
        assert child.sum >= 0.0

    def test_span_sink_appends_jsonl(self, tmp_path, registry):
        sink = tmp_path / "trace.jsonl"
        tracer = Tracer(sink_path=str(sink), registry=registry)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        lines = [
            json.loads(line) for line in sink.read_text().splitlines()
        ]
        assert [event["name"] for event in lines] == ["b", "a"]  # exit order
        assert all("duration_ns" in event and "ts" in event for event in lines)
        assert lines[0]["parent_id"] == lines[1]["span_id"]

    def test_span_never_touches_rng(self, registry):
        """Spans must not consume from any RNG stream (bit-identity)."""
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        tracer = Tracer(registry=registry)
        with tracer.span("rng-free"):
            pass
        assert rng.bit_generator.state == before
        state = np.random.get_state()
        with tracer.span("global-rng-free"):
            pass
        assert repr(np.random.get_state()) == repr(state)

    def test_spans_record_with_telemetry_disabled(self, registry):
        """The kill switch silences metrics, not the span event itself."""
        tracer = Tracer(registry=registry)
        try:
            set_enabled(False)
            with tracer.span("quiet") as event:
                pass
            assert "duration_ns" in event
            family = registry.get("softsnn_span_seconds")
            assert family.labels(name="quiet").count == 0
        finally:
            set_enabled(None)


# --------------------------------------------------------------------- #
# span instrumentation of the training loop
# --------------------------------------------------------------------- #
class TestTrainingSpans:
    """``train.epoch`` spans fire per epoch and never perturb the result."""

    def _train(self):
        from repro.data.synthetic_mnist import SyntheticMNIST
        from repro.snn.network import NetworkConfig
        from repro.snn.training import TrainingConfig, TrainingRunner

        dataset = SyntheticMNIST().generate(n_samples=8, rng=3, classes=[0, 1])
        runner = TrainingRunner(
            NetworkConfig(n_inputs=784, n_neurons=8, timesteps=20),
            TrainingConfig(
                epochs=2, learning_mode="fast_wta", label_assignment_mode="fast"
            ),
        )
        return runner.train(dataset, rng=5)

    def test_train_epoch_spans_emitted(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        configure_trace(str(sink))
        try:
            self._train()
        finally:
            configure_trace(None)
        events = [json.loads(line) for line in sink.read_text().splitlines()]
        epochs = [event for event in events if event["name"] == "train.epoch"]
        assert [event["attributes"]["epoch"] for event in epochs] == [1, 2]
        assert all(
            event["attributes"]["mode"] == "fast_wta" for event in epochs
        )
        assert all(event["duration_ns"] >= 0 for event in epochs)

    def test_training_bit_identical_with_tracing_on(self, tmp_path):
        baseline = self._train()
        sink = tmp_path / "trace.jsonl"
        configure_trace(str(sink))
        try:
            traced = self._train()
        finally:
            configure_trace(None)
        assert sink.read_text()  # the sink really was live during training
        assert np.array_equal(baseline.weights, traced.weights)
        assert np.array_equal(baseline.theta, traced.theta)
        assert np.array_equal(baseline.neuron_labels, traced.neuron_labels)


# --------------------------------------------------------------------- #
# Grafana dashboard stays in sync with the metric catalog
# --------------------------------------------------------------------- #
class TestGrafanaDashboard:
    _DOCS = __import__("pathlib").Path(__file__).resolve().parents[1] / "docs"

    def _catalog_families(self):
        """Every ``softsnn_`` family documented in observability.md tables."""
        text = (self._DOCS / "observability.md").read_text()
        catalog = text.split("## Metric catalog", 1)[1].split(
            "## Span naming convention", 1
        )[0]
        families = set()
        for line in catalog.splitlines():
            if not line.startswith("| `softsnn_"):
                continue
            families.add(line.split("`")[1])
        return families

    def test_catalog_is_nonempty_and_complete(self):
        families = self._catalog_families()
        # Spot-check one family per subsystem so a doc refactor that drops
        # a whole table section cannot silently pass.
        for expected in (
            "softsnn_kernel_calls_total",
            "softsnn_engine_batches_total",
            "softsnn_training_epochs_total",
            "softsnn_campaign_cells_total",
            "softsnn_serve_requests_total",
            "softsnn_span_seconds",
        ):
            assert expected in families
        # Exact, not a floor: a family dropped from (or added to) the
        # catalog must update this count on purpose.
        assert len(families) == 24

    def test_every_cataloged_family_has_a_panel(self):
        dashboard = json.loads(
            (self._DOCS / "grafana-softsnn.json").read_text()
        )
        queries = " ".join(
            target.get("expr", "")
            for panel in dashboard["panels"]
            for target in panel.get("targets", [])
        )
        missing = [
            family
            for family in sorted(self._catalog_families())
            if family not in queries
        ]
        assert not missing, f"dashboard lacks panels for: {missing}"

    def test_dashboard_panels_are_well_formed(self):
        dashboard = json.loads(
            (self._DOCS / "grafana-softsnn.json").read_text()
        )
        assert dashboard["title"] == "SoftSNN observability"
        graph_panels = [
            panel for panel in dashboard["panels"] if panel["type"] != "row"
        ]
        assert len(graph_panels) >= 10
        for panel in graph_panels:
            assert panel["targets"], f"panel {panel['title']!r} has no query"


# --------------------------------------------------------------------- #
# process-wide wiring
# --------------------------------------------------------------------- #
class TestDefaultRegistry:
    def test_default_registry_is_shared(self):
        assert obs_metrics.get_registry() is obs_metrics.get_registry()

    def test_instrumented_modules_share_the_default_registry(self):
        # Importing the kernels module registers its families.
        import repro.snn.kernels  # noqa: F401

        registry = obs_metrics.get_registry()
        family = registry.get("softsnn_kernel_calls_total")
        assert family is not None
        assert family.label_names == ("kernel", "backend")

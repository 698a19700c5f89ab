"""Unit tests for ``repro.obs.metrics`` — the latency histograms behind
the serving stack.

The contracts under test: locked observations are never lost under
threads, bucket counts follow Prometheus ``le`` semantics, the rolling
window keeps the most recent observations, label names are fixed per
family, and the read views (snapshot / saved file / Prometheus text)
agree with each other.
"""

import contextlib
import json
import sys
import threading

import pytest

from repro.obs.export import serve_report
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_WINDOW,
    MetricsRegistry,
    quantile,
    render_prometheus,
)


@contextlib.contextmanager
def _fast_switching():
    """Switch threads every microsecond, so an unlocked read-modify-write
    in a histogram would lose updates within a few thousand writes."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _run_all(threads, timeout=60):
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
    assert not any(t.is_alive() for t in threads)


class TestHistogram:
    def test_window_keeps_most_recent(self):
        h = MetricsRegistry().histogram("w_seconds").labels()
        for i in range(DEFAULT_WINDOW + 10):
            h.observe(float(i))
        # A maxlen window must keep the chronological tail, not the
        # sorted extremes.
        assert h.window_values() == [float(i) for i in range(10, DEFAULT_WINDOW + 10)]
        assert h.to_json()["count"] == DEFAULT_WINDOW + 10

    def test_cumulative_le_semantics(self):
        reg = MetricsRegistry()
        h = reg.histogram("le_seconds").labels()
        for value in (0.5, 1.0, 1.5, 20.0):
            h.observe(value)
        doc = h.to_json()
        assert doc["bounds"] == list(DEFAULT_LATENCY_BUCKETS)
        # value == bound lands in that bucket (Prometheus `le`); past the
        # last bound only +Inf counts it.
        per_bucket = dict(zip(doc["bounds"], doc["bucket_counts"]))
        assert (per_bucket[0.5], per_bucket[1.0], per_bucket[2.5]) == (1, 1, 1)
        assert sum(doc["bucket_counts"]) == 3 and doc["count"] == 4
        text = reg.prometheus_text()
        assert 'repro_le_seconds_bucket{le="0.5"} 1' in text
        assert 'repro_le_seconds_bucket{le="1"} 2' in text
        assert 'repro_le_seconds_bucket{le="2.5"} 3' in text
        assert 'repro_le_seconds_bucket{le="10"} 3' in text
        assert 'repro_le_seconds_bucket{le="+Inf"} 4' in text

    def test_quantiles_window_and_buckets(self):
        h = MetricsRegistry().histogram("q_seconds").labels()
        assert quantile(h.window_values(), 0.5) is None
        for value in [0.1] * 50 + [0.001] * 50:
            h.observe(value)
        # The one rule: rank int(q * n) of the sorted window, capped.
        window = h.window_values()
        assert quantile(window, 0.49) == 0.001
        assert quantile(window, 0.5) == 0.1
        assert quantile(window, 1.0) == 0.1
        assert quantile([3.0, 1.0, 2.0], 0.5) == 2.0
        assert quantile([], 0.5) is None

    def test_staged_observes_exact_under_threads(self):
        h = MetricsRegistry().histogram("t_seconds").labels()
        per_thread, threads = 4000, 6

        def writer():
            for _ in range(per_thread):
                h.observe(0.5)

        with _fast_switching():
            _run_all([threading.Thread(target=writer) for _ in range(threads)])
        doc = h.to_json()
        assert doc["count"] == per_thread * threads
        assert sum(doc["bucket_counts"]) == per_thread * threads
        assert doc["sum"] == 0.5 * per_thread * threads
        assert len(doc["window"]) == DEFAULT_WINDOW


class TestLabels:
    def test_label_mismatch_raises(self):
        fam = MetricsRegistry().histogram("l_seconds", labels=("outcome",))
        with pytest.raises(ValueError):
            fam.labels(wrong="hit")
        with pytest.raises(ValueError):
            fam.labels()  # a labeled family has no unlabeled series

    def test_reregistration_same_shape_returns_same_family(self):
        reg = MetricsRegistry()
        a = reg.histogram("again_seconds", labels=("k",))
        b = reg.histogram("again_seconds", labels=("k",))
        assert a is b
        assert a.labels(k="x") is b.labels(k="x")

    def test_reregistration_shape_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.histogram("shape_seconds", labels=("k",))
        with pytest.raises(ValueError):
            reg.histogram("shape_seconds")
        with pytest.raises(ValueError):
            reg.histogram("shape_seconds", labels=("other",))


class TestRegistryReads:
    def test_prometheus_text_exposition(self):
        reg = MetricsRegistry()
        fam = reg.histogram("p_seconds", "help text", labels=("outcome",))
        for value in (0.5, 1.5, 50.0):
            fam.labels(outcome="hit").observe(value)
        text = reg.prometheus_text()
        assert text == render_prometheus(reg.snapshot())
        assert "# HELP repro_p_seconds help text" in text
        assert "# TYPE repro_p_seconds histogram" in text
        assert 'repro_p_seconds_bucket{outcome="hit",le="0.5"} 1' in text
        assert 'repro_p_seconds_bucket{outcome="hit",le="2.5"} 2' in text
        assert 'repro_p_seconds_bucket{outcome="hit",le="+Inf"} 3' in text
        assert 'repro_p_seconds_sum{outcome="hit"} 52' in text
        assert 'repro_p_seconds_count{outcome="hit"} 3' in text

    def test_prometheus_escapes_label_values(self):
        reg = MetricsRegistry()
        fam = reg.histogram("e_seconds", labels=("name",))
        fam.labels(name='sa"w\\tooth').observe(1.0)
        text = reg.prometheus_text()
        assert 'name="sa\\"w\\\\tooth"' in text

    def test_series_key_roundtrips_structural_characters(self):
        # A label value containing ',' or '=' must not corrupt the
        # parsed label pairs or the exposition output.
        from repro.obs.metrics import _parse_series_key, _series_key

        awkward = 'shape=64,128\\mix"ed'
        key = _series_key(("name",), (awkward,))
        assert _parse_series_key(key) == [("name", awkward)]
        reg = MetricsRegistry()
        reg.histogram("awk_seconds", labels=("name",)).labels(name=awkward).observe(1.0)
        text = reg.prometheus_text()
        # One series per line, with the value intact modulo Prometheus's
        # own backslash/quote escaping.
        expected = awkward.replace("\\", "\\\\").replace('"', '\\"')
        assert f'repro_awk_seconds_count{{name="{expected}"}} 1' in text

    def test_snapshot_delta_roundtrip(self):
        # What a reader of two snapshots sees between them (the
        # benchmark reads its queue waits this way): the count and sum
        # grow by exactly the new observations, which end the window.
        reg = MetricsRegistry()
        h = reg.histogram("d_seconds").labels()
        for value in (0.1, 0.2):
            h.observe(value)
        before = reg.snapshot()["metrics"]["d_seconds"]["series"][""]
        for value in (0.3, 0.4, 0.5):
            h.observe(value)
        after = reg.snapshot()["metrics"]["d_seconds"]["series"][""]
        assert after["count"] - before["count"] == 3
        assert after["sum"] - before["sum"] == pytest.approx(1.2)
        assert after["window"][: len(before["window"])] == before["window"]
        assert after["window"][len(before["window"]):] == [0.3, 0.4, 0.5]
        assert sum(after["bucket_counts"]) - sum(before["bucket_counts"]) == 3
        # A snapshot is a copy: later observations leave it unchanged.
        assert before["window"] == [0.1, 0.2]

    def test_snapshot_document_shape(self):
        reg = MetricsRegistry()
        reg.histogram("u_seconds", "unlabeled").labels().observe(0.5)
        reg.histogram("l_seconds", "labeled", labels=("outcome",)).labels(
            outcome="hit"
        ).observe(0.25)
        doc = reg.snapshot()
        assert set(doc) == {"namespace", "created_unix", "metrics"}
        assert doc["namespace"] == "repro"
        assert list(doc["metrics"]) == ["l_seconds", "u_seconds"]
        labeled = doc["metrics"]["l_seconds"]
        assert (labeled["kind"], labeled["help"], labeled["labels"]) == (
            "histogram", "labeled", ["outcome"],
        )
        assert list(labeled["series"]) == ["outcome=hit"]
        assert list(doc["metrics"]["u_seconds"]["series"]) == [""]
        for family in doc["metrics"].values():
            for series in family["series"].values():
                assert set(series) == {
                    "count", "sum", "bounds", "bucket_counts", "window",
                }
        assert doc["metrics"]["u_seconds"]["series"][""]["window"] == [0.5]
        assert json.loads(json.dumps(doc)) == doc

    def test_saved_snapshot_renders_like_the_live_registry(self, tmp_path):
        reg = MetricsRegistry()
        fam = reg.histogram("r_seconds", labels=("outcome",))
        for i, outcome in enumerate(["hit"] * 5 + ["miss"] * 2):
            fam.labels(outcome=outcome).observe(1e-4 * (i + 1))
        path = str(tmp_path / "metrics.json")
        reg.save(path)
        with open(path) as f:
            saved = json.load(f)
        assert render_prometheus(saved) == reg.prometheus_text()
        assert serve_report(saved) == serve_report(reg.snapshot())

    def test_serve_report_rows(self):
        reg = MetricsRegistry()
        assert serve_report(reg.snapshot()) == (
            "serving metrics (repro)\nno metrics recorded"
        )
        fam = reg.histogram("x_seconds", labels=("outcome",))
        values = [0.001, 0.002, 0.003, 0.004]
        for value in values:
            fam.labels(outcome="hit").observe(value)
        rows = {
            line.split()[0]: line.split()[1:]
            for line in serve_report(reg.snapshot()).splitlines()
            if line.startswith("x_seconds")
        }
        count, mean, p50, p95, p99 = rows["x_seconds{outcome=hit}"]
        assert count == "4"
        assert float(mean) == pytest.approx(sum(values) / 4)
        assert (float(p50), float(p95), float(p99)) == (
            quantile(values, 0.50), quantile(values, 0.95), quantile(values, 0.99),
        )

    def test_save_is_atomic(self, tmp_path, monkeypatch):
        # A save that fails while serializing leaves the previous
        # snapshot whole on disk, never a truncated file.
        reg = MetricsRegistry()
        reg.histogram("s_seconds").labels().observe(0.25)
        path = str(tmp_path / "metrics.json")
        first = reg.save(path)
        with open(path) as f:
            assert json.load(f) == first
        snapshot = reg.snapshot
        monkeypatch.setattr(
            reg, "snapshot",
            lambda: {**snapshot(), "zz_unserializable": object()},
        )
        with pytest.raises(TypeError):
            reg.save(path)
        with open(path) as f:
            assert json.load(f) == first
        assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.json"]

"""Unit tests for ``repro.obs.metrics`` — the typed, thread-safe
metrics layer behind the serving stack.

The contracts under test: locked writes never lose an increment (under
threads or interleaved reads), histogram buckets follow Prometheus
``le`` semantics, label cardinality collapses onto the overflow series
instead of growing, and the three read views (snapshot / delta /
Prometheus text) agree with each other.
"""

import contextlib
import math
import sys
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MAX_LABEL_SETS,
    OVERFLOW_LABEL,
    MetricsRegistry,
    quantile,
    render_prometheus,
)


@contextlib.contextmanager
def _fast_switching():
    """Switch threads every microsecond, so an unlocked read-modify-write
    in an instrument would lose updates within a few thousand writes."""
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


class TestCounter:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", "requests")
        c.inc()
        c.inc(4.0)
        assert c.value == 5.0

    def test_negative_increment_raises(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_staged_folds_exact_under_threads(self):
        reg = MetricsRegistry()
        c = reg.counter("hammered_total")
        per_thread, threads = 5000, 8
        stop = threading.Event()
        errors = []

        def writer():
            for _ in range(per_thread):
                c.inc()

        def reader():
            # Reads interleave with the writers; none may see more than
            # was written, and no increment may be lost.
            while not stop.is_set():
                if c.value > per_thread * threads:
                    errors.append(c.value)

        observer = threading.Thread(target=reader)
        observer.start()
        try:
            with _fast_switching():
                _run_all([threading.Thread(target=writer) for _ in range(threads)])
        finally:
            stop.set()
            observer.join(timeout=60)
        assert not errors
        assert c.value == per_thread * threads


class TestHistogram:
    def test_window_keeps_most_recent(self):
        reg = MetricsRegistry()
        h = reg.histogram("w_seconds", buckets=(1.0,), window=4)
        for i in range(10):
            h.observe(float(i))
        # A maxlen window must keep the chronological tail, not the
        # sorted extremes.
        assert h.labels().window_values() == [6.0, 7.0, 8.0, 9.0]

    def test_cumulative_le_semantics(self):
        reg = MetricsRegistry()
        h = reg.histogram("le_seconds", buckets=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 3.0):
            h.observe(value)
        cumulative = h.labels().cumulative()
        # value == bound lands in that bucket (Prometheus `le`).
        assert cumulative == [(1.0, 2), (2.0, 3), (math.inf, 4)]

    def test_quantiles_window_and_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("q_seconds", buckets=DEFAULT_LATENCY_BUCKETS)
        assert h.labels().window_quantile(0.5) is None
        for value in [0.1] * 50 + [0.001] * 50:
            h.observe(value)
        # The one rule: rank int(q * n) of the sorted window, capped.
        assert h.labels().window_quantile(0.49) == 0.001
        assert h.labels().window_quantile(0.5) == 0.1
        assert h.labels().window_quantile(1.0) == 0.1
        assert quantile([3.0, 1.0, 2.0], 0.5) == 2.0
        assert quantile([], 0.5) is None

    def test_staged_observes_exact_under_threads(self):
        reg = MetricsRegistry()
        h = reg.histogram("t_seconds", buckets=(1.0,), window=16)
        per_thread, threads = 4000, 6

        def writer():
            for _ in range(per_thread):
                h.observe(0.5)

        with _fast_switching():
            _run_all([threading.Thread(target=writer) for _ in range(threads)])
        assert h.labels().count == per_thread * threads
        assert h.labels().cumulative()[0] == (1.0, per_thread * threads)
        assert h.labels().sum == 0.5 * per_thread * threads


class TestLabels:
    def test_label_mismatch_raises(self):
        reg = MetricsRegistry()
        fam = reg.counter("l_total", labels=("outcome",))
        with pytest.raises(ValueError):
            fam.labels(wrong="hit")
        with pytest.raises(ValueError):
            fam.inc()  # labeled family has no solo child

    def test_cardinality_collapses_to_overflow(self):
        reg = MetricsRegistry()
        fam = reg.counter("c_total", labels=("key",))
        for i in range(MAX_LABEL_SETS + 40):
            fam.labels(key=f"k{i}").inc()
        children = fam.children()
        assert len(children) == MAX_LABEL_SETS + 1
        overflow = children[(OVERFLOW_LABEL,)]
        assert overflow.value == 40  # every post-cap label collapsed
        total = sum(child.value for child in children.values())
        assert total == MAX_LABEL_SETS + 40

    def test_reregistration_same_shape_returns_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("again_total", labels=("k",))
        b = reg.counter("again_total", labels=("k",))
        assert a is b

    def test_reregistration_shape_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("shape_total", labels=("k",))
        with pytest.raises(ValueError):
            reg.histogram("shape_total")
        with pytest.raises(ValueError):
            reg.counter("shape_total", labels=("other",))


class TestRegistryReads:
    def test_snapshot_delta_roundtrip(self):
        reg = MetricsRegistry()
        c = reg.counter("d_total", labels=("outcome",))
        h = reg.histogram("d_seconds", buckets=(1.0,))
        g = reg.gauge("d_depth")
        c.labels(outcome="hit").inc(3)
        h.observe(0.5)
        g.set(7)
        before = reg.snapshot()
        c.labels(outcome="hit").inc(2)
        c.labels(outcome="miss").inc(1)
        h.observe(2.0)
        g.set(9)
        delta = reg.delta_since(before)
        assert delta["metrics"]["d_total"]["series"] == {
            "outcome=hit": 2.0,
            "outcome=miss": 1.0,
        }
        d_hist = delta["metrics"]["d_seconds"]["series"][""]
        assert d_hist["count"] == 1
        assert d_hist["sum"] == pytest.approx(2.0)
        assert delta["metrics"]["d_depth"]["series"][""] == 9.0

    def test_delta_drops_idle_series(self):
        reg = MetricsRegistry()
        c = reg.counter("idle_total")
        c.inc(5)
        before = reg.snapshot()
        delta = reg.delta_since(before)
        assert "idle_total" not in delta["metrics"]

    def test_prometheus_text_exposition(self):
        reg = MetricsRegistry(namespace="repro")
        c = reg.counter("p_total", "help text", labels=("outcome",))
        c.labels(outcome="hit").inc(2)
        h = reg.histogram("p_seconds", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 5.0):
            h.observe(value)
        text = reg.prometheus_text()
        assert "# TYPE repro_p_total counter" in text
        assert 'repro_p_total{outcome="hit"} 2' in text
        assert 'repro_p_seconds_bucket{le="1"} 1' in text
        assert 'repro_p_seconds_bucket{le="2"} 2' in text
        assert 'repro_p_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_p_seconds_count 3" in text

    def test_prometheus_escapes_label_values(self):
        reg = MetricsRegistry()
        fam = reg.counter("e_total", labels=("name",))
        fam.labels(name='sa"w\\tooth').inc()
        text = reg.prometheus_text()
        assert 'name="sa\\"w\\\\tooth"' in text

    def test_series_key_roundtrips_structural_characters(self):
        # A label value containing ',' or '=' (e.g. a cache or backend
        # name) must not corrupt the parsed label pairs or the
        # exposition output.
        from repro.obs.metrics import _parse_series_key, _series_key

        awkward = 'shape=64,128\\mix"ed'
        key = _series_key(("name",), (awkward,))
        assert _parse_series_key(key) == [("name", awkward)]
        reg = MetricsRegistry()
        reg.counter("awk_total", labels=("name",)).labels(name=awkward).inc()
        text = reg.prometheus_text()
        # One series line, with the value intact modulo Prometheus's
        # own backslash/quote escaping.
        expected = awkward.replace("\\", "\\\\").replace('"', '\\"')
        assert f'repro_awk_total{{name="{expected}"}} 1' in text

    def test_gauge_fn_family_sampled_at_read(self):
        reg = MetricsRegistry()
        state = {"a": 0.5}
        reg.gauge_fn("rates", "per-cache rates", lambda: state)
        assert reg.snapshot()["metrics"]["rates"]["series"] == {"name=a": 0.5}
        state["b"] = 0.25
        assert reg.snapshot()["metrics"]["rates"]["series"] == {
            "name=a": 0.5,
            "name=b": 0.25,
        }

    def test_gauge_fn_name_collision_raises(self):
        # snapshot() merges both family dicts, so a shared name would
        # silently shadow one family from every read view.
        reg = MetricsRegistry()
        reg.counter("taken_total")
        with pytest.raises(ValueError):
            reg.gauge_fn("taken_total", "", lambda: {})
        reg.gauge_fn("rates", "", lambda: {})
        with pytest.raises(ValueError):
            reg.counter("rates")
        # Re-binding the same callback-family name stays allowed.
        reg.gauge_fn("rates", "", lambda: {"a": 1.0})
        assert reg.snapshot()["metrics"]["rates"]["series"] == {"name=a": 1.0}

    def test_callback_gauge_errors_read_as_zero(self):
        reg = MetricsRegistry()
        g = reg.gauge("dead_depth", fn=lambda: 1 / 0)
        assert g.value == 0.0

"""Tests for TuneConfig."""

import dataclasses

import pytest

import repro
from repro import TuneConfig, tune
from repro.frontend import ops
from repro.meta import SearchStats
from repro.sim import SimGPU


@pytest.fixture(scope="module")
def gemm():
    return ops.matmul(128, 128, 128)


class TestTuneConfig:
    def test_defaults_match_old_signature(self):
        cfg = TuneConfig()
        assert cfg.trials == 32
        assert cfg.seed == 0
        assert cfg.allow_tensorize is True
        assert cfg.sketches is None
        assert cfg.validate is True

    def test_with_returns_modified_copy(self):
        cfg = TuneConfig()
        other = cfg.with_(trials=7)
        assert other.trials == 7
        assert cfg.trials == 32

    def test_unknown_option_rejected(self, gemm):
        # A misspelled option must not pass silently.
        with pytest.raises(TypeError):
            TuneConfig(trails=8)
        with pytest.raises(TypeError):
            tune(gemm, SimGPU(), trails=8)


class TestPublicSurface:
    def test_top_level_exports(self):
        for name in (
            "tune",
            "TuneConfig",
            "TuneResult",
            "TuningSession",
            "TuningDatabase",
            "Telemetry",
            "workload_key",
        ):
            assert hasattr(repro, name), name


class TestSearchStatsMerge:
    def test_merge_adds_every_field(self):
        a = SearchStats()
        b = SearchStats()
        for i, f in enumerate(dataclasses.fields(SearchStats), start=1):
            setattr(a, f.name, i)
            setattr(b, f.name, 10 * i)
        a.merge(b)
        for i, f in enumerate(dataclasses.fields(SearchStats), start=1):
            assert getattr(a, f.name) == 11 * i

    def test_merge_returns_self(self):
        a = SearchStats(measured=1)
        assert a.merge(SearchStats(measured=2)) is a
        assert a.measured == 3

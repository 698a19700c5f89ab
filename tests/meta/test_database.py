"""Tests for the tuning-record database (§5.2's search-record caching).

The database surface is one typed protocol — ``get`` / ``put`` /
``evict`` / ``keys``; this module covers it on the in-memory backend.
"""

import re
from collections import Counter

import pytest

from repro.frontend import ops
from repro.meta import TuneConfig, tune
from repro.meta.database import (
    Database,
    DatabaseEntry,
    TuningDatabase,
    _workload_key_impl,
    names_fingerprint,
    workload_key,
)
from repro.sim import SimCPU, SimGPU, estimate
from repro.tir import parse_script, script, structural_hash


@pytest.fixture(scope="module")
def tuned():
    func = ops.matmul(128, 128, 128)
    result = tune(func, SimGPU(), TuneConfig(trials=8, seed=0))
    return func, result


class TestDatabase:
    def test_workload_key_stability(self):
        t = SimGPU()
        k1 = workload_key(ops.matmul(64, 64, 64), t)
        k2 = workload_key(ops.matmul(64, 64, 64), t)
        assert k1 == k2

    def test_workload_key_discriminates(self):
        t = SimGPU()
        assert workload_key(ops.matmul(64, 64, 64), t) != workload_key(
            ops.matmul(64, 64, 128), t
        )
        assert workload_key(ops.matmul(64, 64, 64), t) != workload_key(
            ops.matmul(64, 64, 64), SimCPU()
        )

    def test_names_fingerprint_tells_renamed_copies_apart(self):
        """The fingerprint covers the names ``structural_hash`` ignores,
        so a renamed copy gets a workload key of its own."""
        original = ops.matmul(64, 64, 64)
        renamed = parse_script(
            re.sub(r"\b[ABC]\b", lambda m: "XYZ"["ABC".index(m[0])], script(original))
        )
        assert structural_hash(renamed) == structural_hash(original)
        assert names_fingerprint(ops.matmul(64, 64, 64)) == names_fingerprint(original)
        assert names_fingerprint(renamed) != names_fingerprint(original)
        assert workload_key(renamed, SimGPU()) == _workload_key_impl(renamed, SimGPU().name)
        assert workload_key(renamed, SimGPU()) != workload_key(original, SimGPU())

    def test_record_and_replay_exact(self, tuned):
        func, result = tuned
        db = TuningDatabase()
        db.record(func, SimGPU(), result.best_sketch, result.best_decisions, result.best_cycles)
        replica = ops.matmul(128, 128, 128)
        sch = db.replay_entry(replica, db.get(workload_key(replica, SimGPU())))
        assert sch is not None
        assert estimate(sch.func, SimGPU()).cycles == pytest.approx(result.best_cycles)

    def test_get_returns_typed_entry(self, tuned):
        func, result = tuned
        db = TuningDatabase()
        db.record(func, SimGPU(), result.best_sketch, result.best_decisions, result.best_cycles)
        key = workload_key(func, SimGPU())
        entry = db.get(key)
        assert isinstance(entry, DatabaseEntry)
        assert entry.key == key
        assert entry.workload == func.name
        assert entry.sketch == result.best_sketch
        assert entry.decisions == result.best_decisions

    def test_protocol_primitives(self, tuned):
        func, result = tuned
        db = TuningDatabase()
        assert isinstance(db, Database)
        key = workload_key(func, SimGPU())
        db.record(func, SimGPU(), result.best_sketch, result.best_decisions, result.best_cycles)
        assert db.keys() == [key]
        assert key in db
        assert len(db) == 1
        entry = db.get(key)
        assert db.evict(key) is True
        assert db.get(key) is None
        assert db.evict(key) is False
        db.put(entry)
        assert db.get(key) is entry

    def test_put_keeps_best(self, tuned):
        func, result = tuned
        db = TuningDatabase()
        key = workload_key(func, SimGPU())
        db.record(func, SimGPU(), result.best_sketch, result.best_decisions, 100.0)
        db.record(func, SimGPU(), result.best_sketch, result.best_decisions, 200.0)
        assert db.get(key).cycles == 100.0

    def test_miss_returns_none(self):
        db = TuningDatabase()
        assert db.get(workload_key(ops.matmul(32, 32, 32), SimGPU())) is None

    def test_tune_replays_a_stored_workload_with_one_get_and_one_rebuild(self, tuned):
        func, result = tuned

        class Counting(TuningDatabase):
            def __init__(self):
                super().__init__()
                self.calls = Counter()

            def get(self, key):
                self.calls["get"] += 1
                return super().get(key)

            def replay_entry(self, func, entry, **kwargs):
                self.calls["replay_entry"] += 1
                return super().replay_entry(func, entry, **kwargs)

        db = Counting()
        db.record(func, SimGPU(), result.best_sketch, result.best_decisions, result.best_cycles)
        db.calls.clear()
        replayed = tune(func, SimGPU(), TuneConfig(trials=8, seed=0), database=db)
        assert replayed.replayed and replayed.stats.measured == 0
        assert replayed.best_cycles == pytest.approx(result.best_cycles)
        assert db.calls == {"get": 1, "replay_entry": 1}

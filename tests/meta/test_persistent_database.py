"""Tests for the persistent on-disk tuning database.

The durability contracts behind the schedule server: atomic JSONL
commits that round-trip through a restart, corrupt/truncated-line
recovery with diagnostics instead of crashes, and versioned-schema
skips.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.frontend import ops
from repro.meta import TuneConfig, tune
from repro.meta.database import (
    DB_SCHEMA,
    Database,
    DatabaseEntry,
    PersistentDatabase,
    workload_key,
)
from repro.sim import SimGPU, estimate


@pytest.fixture(scope="module")
def tuned():
    func = ops.matmul(128, 128, 128)
    result = tune(func, SimGPU(), TuneConfig(trials=8, seed=0))
    return func, result


def _entry(key: str, cycles: float = 100.0, **overrides) -> DatabaseEntry:
    fields = dict(
        key=key,
        workload="matmul",
        target="sim-gpu",
        sketch="tensor-core",
        decisions=[1, 2, 3],
        cycles=cycles,
    )
    fields.update(overrides)
    return DatabaseEntry(**fields)


def _record_line(**overrides) -> str:
    """One on-disk record line for key ``cc`` with ``overrides`` applied."""
    record = {"schema": DB_SCHEMA, "key": "cc"}
    record.update(_entry("cc").to_record())
    record.update(overrides)
    return json.dumps(record)


class TestRoundTrip:
    def test_commit_then_reload(self, tmp_path, tuned):
        func, result = tuned
        root = str(tmp_path / "db")
        db = PersistentDatabase(root)
        assert isinstance(db, Database)
        db.record(
            func, SimGPU(), result.best_sketch, result.best_decisions,
            result.best_cycles,
        )
        key = workload_key(func, SimGPU())
        # durable the moment put returns: a fresh instance sees it
        db2 = PersistentDatabase(root)
        entry = db2.get(key)
        assert entry is not None
        assert entry.sketch == result.best_sketch
        assert entry.decisions == result.best_decisions
        assert entry.cycles == result.best_cycles
        sch = db2.replay_entry(func, entry)
        assert sch is not None
        assert estimate(sch.func, SimGPU()).cycles == pytest.approx(result.best_cycles)

    @staticmethod
    def _reload_with_old_field(root, tuned, **old_fields):
        """Commit ``tuned``'s record, rewrite its line with
        ``old_fields`` added as an older writer stored it, reopen the
        store and replay the record."""
        func, result = tuned
        PersistentDatabase(root).record(
            func, SimGPU(), result.best_sketch, result.best_decisions,
            result.best_cycles,
        )
        key = workload_key(func, SimGPU())
        path = os.path.join(root, "entries", f"{key}.jsonl")
        with open(path) as f:
            (line,) = [json.loads(text) for text in f if text.strip()]
        assert not set(old_fields) & set(line)
        with open(path, "w") as f:
            f.write(json.dumps(dict(line, **old_fields)) + "\n")
        db = PersistentDatabase(root)
        assert db.diagnostics == []
        entry = db.get(key)
        assert entry is not None and entry.decisions == result.best_decisions
        sch = db.replay_entry(func, entry)
        assert sch is not None
        assert estimate(sch.func, SimGPU()).cycles == pytest.approx(result.best_cycles)

    def test_line_with_an_old_structural_hash_field_loads_and_replays(
        self, tmp_path, tuned
    ):
        # Older writers stored the workload's structural hash beside the
        # decisions; the loader ignores the field and the record replays.
        self._reload_with_old_field(
            str(tmp_path / "db"), tuned, structural_hash=-6924791430291011904
        )

    def test_line_with_an_old_provenance_field_loads_and_replays(self, tmp_path, tuned):
        # Older writers tagged each record with where it came from; the
        # loader ignores the tag, also one of the wrong type.
        self._reload_with_old_field(str(tmp_path / "db"), tuned, provenance="serve")
        self._reload_with_old_field(str(tmp_path / "db2"), tuned, provenance=1)

    def test_record_lines_are_versioned(self, tmp_path):
        db = PersistentDatabase(str(tmp_path / "db"))
        db.put(_entry("k" * 24))
        path = os.path.join(str(tmp_path / "db"), "entries", "k" * 24 + ".jsonl")
        with open(path) as f:
            lines = [json.loads(line) for line in f if line.strip()]
        assert len(lines) == 1
        assert lines[0]["schema"] == DB_SCHEMA
        assert lines[0]["key"] == "k" * 24
        assert "trace" not in lines[0]
        # Records written while entries still carried a ``trace`` field
        # load unchanged: the loader drops keys it does not know.
        with open(path, "w") as f:
            f.write(json.dumps(dict(lines[0], trace=None)) + "\n")
        reloaded = PersistentDatabase(str(tmp_path / "db"))
        assert reloaded.get("k" * 24) == _entry("k" * 24)
        assert reloaded.diagnostics == []

    def test_put_keeps_best(self, tmp_path):
        db = PersistentDatabase(str(tmp_path / "db"))
        db.put(_entry("aa", cycles=100.0))
        kept = db.put(_entry("aa", cycles=200.0))
        assert kept.cycles == 100.0
        assert db.get("aa").cycles == 100.0

    def test_evict_removes_file(self, tmp_path):
        root = str(tmp_path / "db")
        db = PersistentDatabase(root)
        db.put(_entry("aa"))
        path = os.path.join(root, "entries", "aa.jsonl")
        assert os.path.exists(path)
        assert db.evict("aa") is True
        assert not os.path.exists(path)
        assert db.evict("aa") is False
        assert PersistentDatabase(root).get("aa") is None


class TestCorruptionRecovery:
    def test_truncated_line_skipped_with_diagnostic(self, tmp_path):
        root = str(tmp_path / "db")
        db = PersistentDatabase(root)
        db.put(_entry("aa", cycles=42.0))
        path = os.path.join(root, "entries", "aa.jsonl")
        # simulate a crashed appender: half a JSON object on a new line
        with open(path, "a") as f:
            f.write('{"schema": "repro.db/1", "key": "aa", "cyc')
        db2 = PersistentDatabase(root)
        entry = db2.get("aa")
        assert entry is not None and entry.cycles == 42.0
        assert any("truncated/corrupt" in d for d in db2.diagnostics)

    def test_last_valid_line_wins(self, tmp_path):
        root = str(tmp_path / "db")
        db = PersistentDatabase(root)
        db.put(_entry("aa", cycles=100.0))
        path = os.path.join(root, "entries", "aa.jsonl")
        newer = {"schema": DB_SCHEMA, "key": "aa"}
        newer.update(_entry("aa", cycles=50.0).to_record())
        with open(path, "a") as f:
            f.write(json.dumps(newer) + "\n")
            f.write("garbage that is not json\n")
        db2 = PersistentDatabase(root)
        assert db2.get("aa").cycles == 50.0

    def test_unknown_schema_major_skipped(self, tmp_path):
        root = str(tmp_path / "db")
        os.makedirs(os.path.join(root, "entries"))
        record = {"schema": "repro.db2/9", "key": "aa"}
        record.update(_entry("aa").to_record())
        with open(os.path.join(root, "entries", "aa.jsonl"), "w") as f:
            f.write(json.dumps(record) + "\n")
        db = PersistentDatabase(root)
        assert db.get("aa") is None
        assert any("unknown schema" in d for d in db.diagnostics)

    def test_missing_fields_skipped(self, tmp_path):
        root = str(tmp_path / "db")
        os.makedirs(os.path.join(root, "entries"))
        with open(os.path.join(root, "entries", "aa.jsonl"), "w") as f:
            f.write(json.dumps({"schema": DB_SCHEMA, "key": "aa"}) + "\n")
        db = PersistentDatabase(root)
        assert db.get("aa") is None
        assert any("missing required fields" in d for d in db.diagnostics)

    def test_mismatched_filename_skipped(self, tmp_path):
        root = str(tmp_path / "db")
        os.makedirs(os.path.join(root, "entries"))
        record = {"schema": DB_SCHEMA}
        record.update(_entry("bb").to_record())
        record["key"] = "bb"
        with open(os.path.join(root, "entries", "aa.jsonl"), "w") as f:
            f.write(json.dumps(record) + "\n")
        db = PersistentDatabase(root)
        assert db.get("aa") is None and db.get("bb") is None
        assert any("does not match" in d for d in db.diagnostics)

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param("null", id="null"),
            pytest.param("[]", id="list"),
            pytest.param("42", id="number"),
            pytest.param('"x"', id="string"),
            pytest.param(_record_line(key=7), id="int-key"),
            pytest.param(_record_line(workload=None), id="null-workload"),
            pytest.param(_record_line(sketch=["tensor-core"]), id="list-sketch"),
            pytest.param(_record_line(cycles="fast"), id="string-cycles"),
            pytest.param(_record_line(cycles=float("nan")), id="nan-cycles"),
            pytest.param(_record_line(cycles=True), id="bool-cycles"),
            pytest.param(_record_line(decisions="1,2"), id="string-decisions"),
            pytest.param(_record_line(decisions=[1, "2"]), id="string-decision"),
            pytest.param(_record_line(decisions=[[1, [2]]]), id="nested-decision"),
            pytest.param(_record_line(decisions=[1.5]), id="float-decision"),
        ],
    )
    def test_malformed_line_skipped_with_one_diagnostic(self, tmp_path, line):
        root = str(tmp_path / "db")
        db = PersistentDatabase(root)
        db.put(_entry("aa", cycles=42.0))
        db.put(_entry("bb", cycles=43.0))
        with open(os.path.join(root, "entries", "cc.jsonl"), "w") as f:
            f.write(line + "\n")
        db2 = PersistentDatabase(root)
        assert len(db2.diagnostics) == 1, db2.diagnostics
        assert db2.keys() == ["aa", "bb"]
        assert db2.get("aa") == _entry("aa", cycles=42.0)

    def test_unreadable_entry_file_counts_as_a_recovery(self, tmp_path):
        # A directory where an entry file should be cannot be read: the
        # open skips it with one diagnostic and counts it like any other
        # recovered record.
        root = str(tmp_path / "db")
        db = PersistentDatabase(root)
        db.put(_entry("aa", cycles=42.0))
        os.makedirs(os.path.join(root, "entries", "bad.jsonl"))
        db2 = PersistentDatabase(root)
        assert len(db2.diagnostics) == 1, db2.diagnostics
        assert "unreadable" in db2.diagnostics[0]
        assert db2.keys() == ["aa"]
        assert db2.get("aa") == _entry("aa", cycles=42.0)

    def test_directory_with_old_bookkeeping_sidecar_opens_clean(self, tmp_path):
        # Earlier versions kept access bookkeeping in ``root/lru.json``;
        # the store ignores it.
        root = str(tmp_path / "db")
        PersistentDatabase(root).put(_entry("aa", cycles=7.0))
        with open(os.path.join(root, "lru.json"), "w") as f:
            json.dump({"aa": {"last_access": 1.0, "stored_at": 1.0, "hits": 3}}, f)
        db = PersistentDatabase(root)
        assert db.diagnostics == []
        assert db.get("aa") == _entry("aa", cycles=7.0)


#: A writer that commits records of falling cycles as fast as it can and
#: reports each key once ``put`` has returned.
_WRITER = """
import sys
from repro.meta.database import DatabaseEntry, PersistentDatabase

root, i = sys.argv[1], int(sys.argv[2])
db = PersistentDatabase(root)
print("ready", flush=True)
while True:
    key = f"k{i % 4}"
    db.put(DatabaseEntry(key, "matmul", "sim-gpu", "tensor-core", [i], 1e9 - i))
    print(key, i, flush=True)
    i += 1
"""


class TestKilledWriter:
    def test_sigkilled_writer_loses_no_acknowledged_put(self, tmp_path):
        """SIGKILL a writer at staggered moments: every put it reported
        survives with a record it wrote, any stale ``.db-*.tmp`` file a
        kill leaves is ignored, and the store keeps accepting writes."""
        root = str(tmp_path / "db")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        reported = 0
        for run, delay in enumerate((0.0, 0.03, 0.1, 0.25)):
            first = run * 10**6
            child = subprocess.Popen(
                [sys.executable, "-c", _WRITER, root, str(first)],
                stdout=subprocess.PIPE, text=True, env=env,
            )
            try:
                assert child.stdout.readline() == "ready\n"
                time.sleep(delay)
            finally:
                child.send_signal(signal.SIGKILL)
                # Read the rest through the wrapper ``readline`` used: it
                # may already hold the start of the next line.
                with child.stdout:
                    out = child.stdout.read()
                child.wait(timeout=10)
            last = {}
            for line in out.splitlines(keepends=True):
                if line.endswith("\n"):
                    key, i = line.split()
                    last[key] = int(i)
            reported += len(last)
            db = PersistentDatabase(root)
            assert db.diagnostics == []
            for key, i in last.items():
                entry = db.get(key)
                assert entry is not None, key
                (j,) = entry.decisions
                assert i <= j < first + 10**6
                assert entry.cycles == 1e9 - j
            db.put(_entry("probe", cycles=100.0 - run))
            assert PersistentDatabase(root).get("probe").cycles == 100.0 - run
        assert reported > 0

"""tirlint over the shipped examples (every example must stay valid)
and over synthetic good/bad files exercising discovery and the CLI."""

import glob
import json
import os
import textwrap

import pytest

from repro.diagnostics import lint_path, lint_trace
from repro.diagnostics.__main__ import main as tirlint_main
from repro.schedule import Schedule

from ..common import build_matmul, run_into_closing_reader

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
EXAMPLES = sorted(glob.glob(os.path.join(REPO_ROOT, "examples", "*.py")))


@pytest.mark.parametrize("path", EXAMPLES, ids=[os.path.basename(p) for p in EXAMPLES])
def test_examples_lint_clean(path):
    """Every example exposes at least one discoverable workload and all
    of them pass the §3.3 battery — a regressing example fails tier-1."""
    report = lint_path(path)
    assert report.failures == {}
    assert len(report.functions) >= 1, "no PrimFunc discovered"
    assert report.ok, report.render()


def test_examples_exist():
    assert len(EXAMPLES) >= 4


BAD_FILE = textwrap.dedent(
    """
    from repro.tir import IRBuilder

    def build_oob():
        b = IRBuilder("oob")
        A = b.arg_buffer("A", (40, 1), "float32")
        with b.grid(16) as i:
            with b.block("oob") as blk:
                v1 = blk.spatial(16, i + 8)
                b.store(A, (v1, 0), 1.0)
        return b.finish()
    """
)


class TestLintPath:
    def test_flags_invalid_function(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text(BAD_FILE)
        report = lint_path(str(path))
        assert not report.ok
        assert report.counts_by_code() == {"TIR105": 1}
        assert "build_oob" in report.functions
        rendered = report.render()
        assert "error[TIR105]" in rendered and "FAILED" in rendered

    def test_broken_builder_reported_not_raised(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def build_boom():\n    raise RuntimeError('nope')\n")
        report = lint_path(str(path))
        assert not report.ok
        assert "build_boom" in report.failures
        assert "RuntimeError" in report.failures["build_boom"]

    def test_import_failure_reported(self, tmp_path):
        path = tmp_path / "unimportable.py"
        path.write_text("import does_not_exist_anywhere\n")
        report = lint_path(str(path))
        assert "<module>" in report.failures


class TestLintTrace:
    def test_replays_and_validates(self):
        sch = Schedule(build_matmul(32, 32, 32))
        i, _, _ = sch.get_loops(sch.get_block("C"))
        sch.split(i, [None, 8])
        assert lint_trace(sch.trace, build_matmul(32, 32, 32)) == []

    def test_replay_precondition_failure_is_tir4xx(self):
        sch = Schedule(build_matmul(64, 64, 64), seed=0)
        i, _, _ = sch.get_loops(sch.get_block("C"))
        sch.sample_perfect_tile(i, 2)
        # Replaying onto a 48-extent loop: the recorded tiling decision
        # no longer factors the extent, exactly as the search sees it.
        diags = lint_trace(sch.trace, build_matmul(48, 64, 64))
        assert [d.code for d in diags] == ["TIR400"]
        assert "decision product" in str(diags[0])


class TestCli:
    def test_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text(
            "from repro.tir import IRBuilder\n"
            "def build_ok():\n"
            "    b = IRBuilder('ok')\n"
            "    A = b.arg_buffer('A', (4,), 'float32')\n"
            "    with b.grid(4) as i:\n"
            "        with b.block('A') as blk:\n"
            "            vi = blk.spatial(4, i)\n"
            "            b.store(A, (vi,), 1.0)\n"
            "    return b.finish()\n"
        )
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_FILE)
        unimportable = tmp_path / "unimportable.py"
        unimportable.write_text("import does_not_exist_anywhere\n")

        assert tirlint_main([str(good)]) == 0
        assert tirlint_main([str(bad)]) == 1
        assert tirlint_main([str(unimportable)]) == 2
        out = capsys.readouterr().out
        assert "OK" in out and "FAILED" in out

    def test_closed_stdout_exits_1_without_a_traceback(self, tmp_path):
        # Thousands of failing builders make a report far larger than a
        # pipe buffer, so the reader closes stdout mid-write.
        many = tmp_path / "many.py"
        many.write_text(
            "for _i in range(3000):\n"
            "    def _boom(_i=_i):\n"
            "        raise RuntimeError(f'builder {_i} failed')\n"
            "    globals()[f'build_f{_i:04d}'] = _boom\n"
        )
        first, status, stderr = run_into_closing_reader(
            "-m", "repro.diagnostics", str(many)
        )
        assert first.startswith("error: build_f0000: builder raised RuntimeError")
        assert (status, stderr) == (1, "")

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_FILE)
        assert tirlint_main([str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        (entry,) = payload
        assert entry["ok"] is False
        assert entry["counts_by_code"] == {"TIR105": 1}
        (diag,) = entry["diagnostics"]["build_oob"]
        assert diag["code"] == "TIR105"
        assert diag["span"] is not None

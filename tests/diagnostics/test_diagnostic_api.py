"""Diagnostic objects, span rendering, the DiagnosticContext sink and
the unified DiagnosticError hierarchy (including the legacy string
shim on VerificationError)."""

import warnings

import pytest

import repro
from repro.diagnostics import (
    Diagnostic,
    DiagnosticContext,
    DiagnosticError,
    Severity,
    tagged,
)
from repro.schedule import ScheduleError, VerificationError, verify
from repro.tir import IRBuilder, script, script_with_spans

from ..common import build_matmul


def _oob_func():
    b = IRBuilder("oob")
    A = b.arg_buffer("A", (40, 1), "float32")
    with b.grid(16) as i:
        with b.block("oob") as blk:
            v1 = blk.spatial(16, i + 8)
            b.store(A, (v1, 0), 1.0)
    return b.finish()


class TestDiagnostic:
    def test_str_is_legacy_message(self):
        diag = Diagnostic("TIR105", "oob: binding leaves domain", block="oob")
        assert str(diag) == "oob: binding leaves domain"
        assert "leaves domain" in diag  # __contains__ for substring probes
        assert diag == "oob: binding leaves domain"  # __eq__ against str

    def test_structured_accessors(self):
        diag = Diagnostic("TIR105", "msg")
        assert diag.family == "loop-nest"
        assert "domain" in diag.title
        assert diag.severity is Severity.ERROR

    def test_render_without_location_is_one_line(self):
        diag = Diagnostic("TIR400", "split: bad factors")
        assert diag.render() == "error[TIR400]: split: bad factors"


class TestSpanRendering:
    def test_script_with_spans_covers_script_lines(self):
        func = build_matmul(16, 16, 16)
        text, spans = script_with_spans(func)
        assert text == script(func)
        n_lines = len(text.splitlines())
        assert spans  # statements were located
        for start, end in spans.values():
            assert 1 <= start <= end <= n_lines

    def test_verify_diagnostic_renders_span(self):
        diags = verify(_oob_func())
        assert len(diags) == 1
        rendered = diags[0].render()
        # Compiler-style report: header, location arrow, caret underline.
        assert rendered.startswith("error[TIR105]: ")
        assert "-->" in rendered
        assert "^" in rendered
        start, end = diags[0].span()
        assert 1 <= start <= end

    def test_rendered_excerpt_quotes_the_failing_statement(self):
        diags = verify(_oob_func())
        rendered = diags[0].render()
        assert "block('oob')" in rendered


class TestDiagnosticContext:
    def test_emit_and_counts(self):
        ctx = DiagnosticContext()
        ctx.emit("TIR101", "a")
        ctx.emit("TIR101", "b")
        ctx.emit("TIR202", "c", severity=Severity.WARNING)
        assert len(ctx) == 3
        assert ctx.counts_by_code() == {"TIR101": 2, "TIR202": 1}
        assert [str(d) for d in ctx] == ["a", "b", "c"]
        assert len(ctx.errors) == 2  # the warning is not an error
        assert not ctx.ok()

    def test_ok_when_only_warnings(self):
        ctx = DiagnosticContext()
        ctx.emit("TIR000", "heads up", severity=Severity.WARNING)
        assert ctx.ok()

    def test_raise_if_error(self):
        ctx = DiagnosticContext()
        ctx.raise_if_error()  # no-op when clean
        ctx.emit("TIR105", "bad binding")
        with pytest.raises(DiagnosticError) as exc_info:
            ctx.raise_if_error()
        assert exc_info.value.codes == ["TIR105"]

    def test_verify_accumulates_into_shared_context(self):
        ctx = DiagnosticContext()
        first = verify(_oob_func(), ctx=ctx)
        second = verify(build_matmul(8, 8, 8), ctx=ctx)
        assert [d.code for d in first] == ["TIR105"]
        assert second == []  # only the new run's findings are returned
        assert ctx.counts_by_code() == {"TIR105": 1}


class TestErrorHierarchy:
    def test_schedule_and_verification_errors_share_base(self):
        assert issubclass(ScheduleError, DiagnosticError)
        assert issubclass(VerificationError, DiagnosticError)
        # One except clause now catches both.
        for exc in (ScheduleError("x"), VerificationError([Diagnostic("TIR105", "y")])):
            assert isinstance(exc, DiagnosticError)

    def test_top_level_exports(self):
        for name in ("Diagnostic", "DiagnosticContext", "DiagnosticError",
                     "Severity", "verify"):
            assert hasattr(repro, name), name
        assert repro.Diagnostic is Diagnostic

    def test_str_joins_diagnostics(self):
        err = DiagnosticError([Diagnostic("TIR101", "a"), Diagnostic("TIR102", "b")])
        assert str(err) == "a; b"
        assert err.codes == ["TIR101", "TIR102"]

    def test_retag_preserves_specific_codes(self):
        err = DiagnosticError(["generic problem", Diagnostic("TIR105", "specific")])
        err.retag("TIR401")
        assert err.codes == ["TIR401", "TIR105"]

    def test_tagged_decorator(self):
        @tagged("TIR402")
        def primitive():
            raise ScheduleError("loops are not perfectly nested")

        with pytest.raises(ScheduleError) as exc_info:
            primitive()
        assert exc_info.value.codes == ["TIR402"]


class TestLegacyStringShim:
    def test_verification_error_from_diagnostics_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = VerificationError([Diagnostic("TIR106", "bad reduction")])
        assert err.codes == ["TIR106"]

    def test_schedule_error_strings_stay_first_class(self):
        # ScheduleError("msg") is the supported raise idiom inside
        # primitives, not a deprecated path: no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = ScheduleError("split: bad factors")
        assert str(err) == "split: bad factors"
        assert err.codes == ["TIR400"]

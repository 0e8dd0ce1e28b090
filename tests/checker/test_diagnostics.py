"""Diagnostics and reports: severities, formatting, aggregation."""

from repro.checker.diagnostics import (
    CheckReport,
    Severity,
    error,
    info,
    warning,
)


class TestDiagnostic:
    def test_format_includes_rule_and_subject(self):
        d = error("plane-one-writer", "two writers", subject="mem[3].write",
                  pipeline=2)
        text = d.format()
        assert "ERROR" in text
        assert "plane-one-writer" in text
        assert "mem[3].write" in text
        assert "pipeline 2" in text

    def test_severity_predicates(self):
        assert Severity.ERROR.is_error
        assert not Severity.WARNING.is_error

    def test_helpers_build_right_severity(self):
        assert error("r", "m").severity is Severity.ERROR
        assert warning("r", "m").severity is Severity.WARNING
        assert info("r", "m").severity is Severity.INFO


class TestReport:
    def test_empty_report_is_ok(self):
        report = CheckReport()
        assert report.ok
        assert bool(report)
        assert report.format() == "clean"

    def test_warnings_do_not_block(self):
        report = CheckReport()
        report.add(warning("r", "watch out"))
        assert report.ok
        assert len(report.warnings) == 1

    def test_errors_block(self):
        report = CheckReport()
        report.add(error("r", "broken"))
        assert not report.ok
        assert not bool(report)

    def test_merge(self):
        a, b = CheckReport(), CheckReport()
        a.add(error("r", "x"))
        b.add(warning("r", "y"))
        a.merge(b)
        assert len(a) == 2

    def test_first_error_message(self):
        report = CheckReport()
        report.add(warning("r", "w"))
        assert report.first_error_message() == ""
        report.add(error("r2", "broken thing"))
        assert "broken thing" in report.first_error_message()

    def test_iteration(self):
        report = CheckReport()
        report.extend([error("a", "1"), warning("b", "2")])
        assert [d.rule for d in report] == ["a", "b"]

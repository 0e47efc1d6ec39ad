"""Machine-readable lint output (--format json|github) and the CLI
exit-code contract (0 success / 1 findings / 2 usage) across every lint
subcommand."""

import json
from pathlib import Path

import pytest

from repro.analysis.diagnostics import DiagnosticReport, Severity
from repro.analysis.format import (
    FORMATS,
    SCHEMA,
    render_report,
    report_to_json,
)
from repro.analysis.lint import cli
from repro.analysis.selfcheck import selfcheck_source

FIXTURES = Path(__file__).resolve().parent.parent / "examples" / "lint_fixtures"
SELFCHECK = FIXTURES / "selfcheck"
INTERFERENCE = FIXTURES / "interference"

SAMPLE = ("import time\n"
          "t = time.time()\n"
          "for x in {1, 2}:\n"
          "    print(x)\n")


@pytest.fixture()
def report():
    return selfcheck_source(SAMPLE, "sample.py")


class TestJson:
    def test_schema_and_summary(self, report):
        doc = report_to_json(report)
        assert doc["schema"] == SCHEMA
        assert doc["summary"] == {"errors": 1, "warnings": 1, "notes": 0}

    def test_findings_have_frozen_keys(self, report):
        doc = report_to_json(report)
        for finding in doc["findings"]:
            assert {"code", "severity", "message", "site",
                    "fix_hint"} <= set(finding)
            assert {"kind", "name", "detail", "file",
                    "line"} <= set(finding["site"])
        codes = [f["code"] for f in doc["findings"]]
        assert codes == ["DET001", "DET002"]

    def test_render_json_roundtrips(self, report):
        doc = json.loads(render_report(report, "json"))
        assert doc == json.loads(
            json.dumps(report_to_json(report), sort_keys=True))

    def test_text_json_parity(self, report):
        """Same findings in both renderings: every (code, line) pair in
        the JSON appears in the text form and vice versa."""
        text = render_report(report, "text")
        doc = json.loads(render_report(report, "json"))
        for finding in doc["findings"]:
            assert finding["code"] in text
        assert text.count("DET001") + text.count("DET002") \
            >= len(doc["findings"])


class TestGithub:
    def test_line_shape(self, report):
        lines = render_report(report, "github").splitlines()
        assert lines[0].startswith("::error file=sample.py,line=2,"
                                   "title=DET001::")
        assert lines[1].startswith("::warning file=sample.py,line=3,"
                                   "title=DET002::")
        assert lines[-1].startswith("afflint:")

    def test_payload_escaping(self):
        rep = DiagnosticReport()
        from repro.analysis.diagnostics import Diagnostic, Site
        rep.add(Diagnostic("DET001", Severity.ERROR,
                           Site("file", "f.py", file="f.py", line=1),
                           "100% bad\nsecond line"))
        (line, _summary) = render_report(rep, "github").splitlines()
        assert "%25" in line and "%0A" in line
        assert "\n" not in line

    def test_non_file_site_prefixes_message(self):
        rep = DiagnosticReport()
        from repro.analysis.diagnostics import Diagnostic, Site
        rep.add(Diagnostic("INT003", Severity.WARNING,
                           Site("bank", "7"), "hot"))
        line = render_report(rep, "github").splitlines()[0]
        assert "file=" not in line
        assert line.startswith("::warning title=INT003::")

    def test_unknown_format_raises(self, report):
        with pytest.raises(ValueError):
            render_report(report, "yaml")
        assert set(FORMATS) == {"text", "json", "github"}


class TestCliExitCodes:
    def test_self_clean_tree_is_zero(self, capsys, memoized_selfcheck):
        assert cli(["--self"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_self_fixtures_fail(self, capsys):
        assert cli(["--self", str(SELFCHECK)]) == 1

    def test_self_fixtures_expect_findings(self, capsys):
        assert cli(["--self", str(SELFCHECK), "--expect-findings"]) == 0

    def test_self_expect_findings_fails_when_clean(self, capsys, memoized_selfcheck):
        assert cli(["--self", "--expect-findings"]) == 1

    def test_self_and_plans_is_usage_error(self, capsys):
        assert cli(["--self", "--plans", "vecadd"]) == 2

    def test_bare_verify_traffic_is_usage_error(self, capsys):
        assert cli(["--verify-traffic"]) == 2

    def test_plans_unknown_workload_is_usage_error(self, capsys):
        assert cli(["--plans", "vecadd,nosuchworkload"]) == 2

    def test_plans_fixture_with_verify_is_usage_error(self, capsys):
        fixture = INTERFERENCE / "hot_bank.py"
        assert cli(["--plans", str(fixture), "--verify-traffic"]) == 2

    def test_plans_shipped_workloads_are_clean(self, capsys):
        assert cli(["--plans", "vecadd,pathfinder"]) == 0
        out = capsys.readouterr().out
        assert "contention matrix" in out

    @pytest.mark.parametrize("name", sorted(
        p.name for p in INTERFERENCE.glob("*.py")))
    def test_plans_fixture_expect_findings(self, name, capsys):
        assert cli(["--plans", str(INTERFERENCE / name),
                    "--expect-findings"]) == 0

    def test_plans_error_fixture_fails_without_expect(self, capsys):
        fixture = INTERFERENCE / "conflicting_interleaves.py"
        assert cli(["--plans", str(fixture)]) == 1

    def test_plans_warning_fixture_needs_strict(self, capsys):
        fixture = INTERFERENCE / "hot_bank.py"
        assert cli(["--plans", str(fixture)]) == 0
        assert cli(["--plans", str(fixture), "--strict"]) == 1


class TestCliFormats:
    def test_self_json_output(self, capsys):
        cli(["--self", str(SELFCHECK), "--format", "json",
             "--expect-findings"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == SCHEMA
        assert doc["summary"]["errors"] > 0

    def test_plans_json_output(self, capsys):
        cli(["--plans", str(INTERFERENCE / "hot_bank.py"),
             "--format", "json", "--expect-findings"])
        doc = json.loads(capsys.readouterr().out)
        assert {f["code"] for f in doc["findings"]} == {"INT003"}

    def test_self_github_output(self, capsys):
        cli(["--self", str(SELFCHECK), "--format", "github",
             "--expect-findings"])
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "title=DET001" in out

    def test_fixture_mode_json_output(self, capsys):
        cli([str(FIXTURES / "leak.py"), "--format", "json",
             "--expect-findings"])
        doc = json.loads(capsys.readouterr().out)
        assert "LIF002" in {f["code"] for f in doc["findings"]}

    def test_default_mode_json_output(self, capsys):
        assert cli(["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == SCHEMA
        # Informational notes are fine; errors/warnings must be zero.
        assert doc["summary"]["errors"] == 0
        assert doc["summary"]["warnings"] == 0

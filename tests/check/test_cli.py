"""``python -m repro check`` CLI: selection, formats, exit codes."""

import json

import pytest

import repro.__main__ as repro_main
from repro.check.cli import PASS_NAMES, main, run_check
from repro.cli import Exit, select
from repro.check.report import CheckReport, Finding, PassResult


class TestSelection:
    def test_default_selects_all_in_order(self):
        assert select(PASS_NAMES, None, None) == list(PASS_NAMES)

    def test_only_narrows(self):
        # declaration order, not --only order
        assert select(PASS_NAMES, "lints,protocol", None) == [
            "protocol", "lints"]

    def test_skip_removes(self):
        selected = select(PASS_NAMES, None, "gspn")
        assert selected == ["protocol", "lints", "deps", "units", "races"]

    def test_unknown_names_reported_not_ignored(self):
        with pytest.raises(Exit, match="unknown pass.*: bogus, nosuch") as exc:
            select(PASS_NAMES, "protocol,nosuch", "bogus", what="pass(es)")
        assert exc.value.code == 2


class TestMain:
    def test_unknown_pass_exits_2(self, capsys):
        assert main(["--only", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown pass(es): nosuch" in err
        assert "known: protocol, gspn, lints, deps, units, races" in err

    def test_empty_selection_exits_2(self, capsys):
        assert main(["--skip", "protocol,gspn,lints,deps,units,races"]) == 2
        assert "selection is empty" in capsys.readouterr().err

    def test_json_format_parses(self, capsys):
        assert main(["--only", "lints", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["name"] for p in payload["passes"]] == ["lints"]
        assert payload["summary"]["ok"] is True
        assert payload["summary"]["errors"] == 0

    def test_text_format_has_summary_line(self, capsys):
        assert main(["--only", "lints"]) == 0
        out = capsys.readouterr().out
        assert "[lints] ok" in out
        assert "1 pass(es), 0 error(s)" in out

    def test_dispatch_from_repro_main(self, capsys):
        assert repro_main.main(["check", "--only", "lints"]) == 0
        assert "[lints] ok" in capsys.readouterr().out

    def test_experiment_cli_unaffected(self, capsys):
        assert repro_main.main(["list"]) == 0
        assert "table1" in capsys.readouterr().out


class TestFullSuite:
    def test_shipped_tree_passes_every_check(self):
        # The tier-1 self-check: protocol exhaustion, GSPN structural
        # analysis and lints all clean on the shipped sources.
        report = run_check()
        assert [p.name for p in report.passes] == list(PASS_NAMES)
        assert report.exit_code == 0, [f.render() for f in report.errors]


class TestReport:
    def _finding(self, severity="error"):
        return Finding("protocol", "single-writer", severity,
                       "nodes=2, blocks=1", "two writers",
                       ("node 0 issues a write of block 0",
                        "node 1 issues a write of block 0"))

    def test_error_sets_exit_code(self):
        report = CheckReport([PassResult("protocol", [self._finding()])])
        assert report.exit_code == 1

    def test_warnings_do_not_fail(self):
        report = CheckReport(
            [PassResult("gspn", [self._finding("warning")])]
        )
        assert report.exit_code == 0

    def test_render_includes_trace_steps(self):
        text = self._finding().render()
        assert "error[protocol/single-writer]" in text
        assert "counterexample trace:" in text
        assert "1. node 0 issues a write of block 0" in text

    def test_json_round_trips_trace(self):
        report = CheckReport([PassResult("protocol", [self._finding()])])
        payload = json.loads(report.to_json())
        finding = payload["passes"][0]["findings"][0]
        assert finding["rule"] == "single-writer"
        assert len(finding["trace"]) == 2
        assert payload["summary"]["ok"] is False

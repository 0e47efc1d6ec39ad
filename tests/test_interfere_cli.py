"""CLI contract tests for ``repro interfere``, ``autoplace`` and chaos.

Pins the cliutil exit-code contract (0 success / 1 failed check /
2 usage error) across the arm-comparison subcommands, including bad
numeric flags (non-finite or out-of-range scales, sweep factors, rates
and intensities end in exit 2, never a traceback or an ``inf`` report),
the regression where
``repro chaos`` used to blow up with a traceback (exit 1) instead of a
usage error when handed an unreadable plan path — with or without an
``--interfere`` plan riding along — and the one where a plan of the
wrong kind (or a non-object) was silently accepted or crashed.
"""

import json

import pytest

from repro.harness.arms import autoplace_cli, chaos_cli, interfere_cli
from repro.harness.cliutil import EXIT_FAILURE, EXIT_OK, EXIT_USAGE
from repro.faults.log import FaultEventLog
from repro.faults.plan import FaultPlan
from repro.interfere.plan import HostTrafficPlan
from repro.relayout.plan import MigrationPlan

WORKLOAD_ARGS = ["vecadd", "--scale", "0.05", "--sweep", "1"]


@pytest.fixture
def plan_file(tmp_path):
    path = tmp_path / "plan.json"
    HostTrafficPlan.generate(0).save(path)
    return path


@pytest.fixture
def fault_plan_file(tmp_path):
    path = tmp_path / "fault-plan.json"
    FaultPlan.generate(0, 0.05).save(path)
    return path


@pytest.fixture
def list_file(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    return path


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"streams": [')
    return path


class TestInterfereCli:
    def test_success_exit_ok(self, capsys):
        assert interfere_cli(WORKLOAD_ARGS) == EXIT_OK
        out = capsys.readouterr().out
        assert "Host-contention report" in out

    def test_unknown_workload_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            interfere_cli(["no_such_workload"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_plan_file_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            interfere_cli(WORKLOAD_ARGS
                          + ["--plan", str(tmp_path / "nope.json")])
        assert exc.value.code == EXIT_USAGE

    def test_broken_plan_file_is_usage_error(self, broken_file):
        with pytest.raises(SystemExit) as exc:
            interfere_cli(WORKLOAD_ARGS + ["--plan", str(broken_file)])
        assert exc.value.code == EXIT_USAGE

    def test_fault_plan_as_host_plan_is_usage_error(self, fault_plan_file):
        # Used to run an empty host plan and report a 1.000x slowdown.
        with pytest.raises(SystemExit) as exc:
            interfere_cli(WORKLOAD_ARGS + ["--plan", str(fault_plan_file)])
        assert exc.value.code == EXIT_USAGE

    def test_non_object_plan_is_usage_error(self, list_file):
        with pytest.raises(SystemExit) as exc:
            interfere_cli(WORKLOAD_ARGS + ["--plan", str(list_file)])
        assert exc.value.code == EXIT_USAGE

    def test_bad_sweep_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            interfere_cli(["vecadd", "--sweep", "1,-2"])
        assert exc.value.code == EXIT_USAGE

    def test_unmet_min_slowdown_is_check_failure(self):
        assert interfere_cli(["vecadd", "--scale", "0.05", "--sweep",
                              "0.001", "--min-slowdown", "10"]) \
            == EXIT_FAILURE

    def test_met_min_slowdown_passes(self):
        assert interfere_cli(["vecadd", "--scale", "0.05", "--sweep", "4",
                              "--min-slowdown", "1.5"]) == EXIT_OK

    def test_save_report_and_plan(self, tmp_path, plan_file):
        report_path = tmp_path / "report.json"
        plan_out = tmp_path / "plan_out.json"
        assert interfere_cli(WORKLOAD_ARGS
                             + ["--plan", str(plan_file),
                                "--save-report", str(report_path),
                                "--save-plan", str(plan_out)]) == EXIT_OK
        payload = json.loads(report_path.read_text())
        assert payload["rows"][0]["workload"] == "vecadd"
        assert payload["rows"][0]["arms"][0]["slowdown"] >= 1.0
        assert HostTrafficPlan.load(plan_out) \
            == HostTrafficPlan.load(plan_file)


CLIS = {"chaos": chaos_cli, "interfere": interfere_cli,
        "autoplace": autoplace_cli}


@pytest.mark.parametrize("name, argv", [
    ("autoplace", ["bfs", "--scale", "0"]),
    ("autoplace", ["bfs", "--scale", "-1"]),
    ("chaos", ["vecadd", "--scale", "nan"]),
    ("interfere", ["vecadd", "--scale", "inf"]),
    ("interfere", ["vecadd", "--sweep", "nan"]),
    ("interfere", ["vecadd", "--sweep", "inf"]),
    ("interfere", ["vecadd", "--sweep", "1,abc"]),
    ("chaos", ["vecadd", "--rate", "-1"]),
    ("interfere", ["vecadd", "--intensity", "-1"]),
])
def test_bad_numeric_flag_is_usage_error(name, argv):
    with pytest.raises(SystemExit) as exc:
        CLIS[name](argv)
    assert exc.value.code == EXIT_USAGE


class TestAutoplaceCli:
    def test_unknown_scenario_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            autoplace_cli(["no_such_scenario"])
        assert exc.value.code == EXIT_USAGE

    def test_unmet_min_recovery_is_check_failure(self, capsys):
        assert autoplace_cli(["stream_flip", "--scale", "0.25",
                              "--min-recovery", "100"]) == EXIT_FAILURE
        assert "ERROR: best recovered speedup" in capsys.readouterr().out

    def test_save_report_and_plan_round_trip(self, tmp_path):
        report_path = tmp_path / "report.json"
        plan_path = tmp_path / "plan.json"
        assert autoplace_cli(["stream_flip", "--scale", "0.25",
                              "--save-report", str(report_path),
                              "--save-plan", str(plan_path)]) == EXIT_OK
        text = report_path.read_text()
        payload = json.loads(text)
        assert json.dumps(payload, sort_keys=True, indent=1) + "\n" == text
        assert [r["scenario"] for r in payload["rows"]] == ["stream_flip"]
        plan = MigrationPlan.load(plan_path)
        assert plan.to_dict() == payload["plan"]
        assert plan.applied_count() == payload["rows"][0]["migrations"] > 0


class TestChaosInterfereComposition:
    def test_both_plans_compose_exit_ok(self, tmp_path, plan_file, capsys):
        fault_plan = tmp_path / "faults.json"
        # generate-then-save via the chaos CLI's own plan generator
        from repro.faults.plan import FaultPlan
        FaultPlan.generate(0, 0.05, tasks=1).save(fault_plan)
        assert chaos_cli(["vecadd", "--scale", "0.05",
                          "--plan", str(fault_plan),
                          "--interfere", str(plan_file)]) == EXIT_OK
        assert "inj msgs" in capsys.readouterr().out

    def test_interfered_chaos_report_carries_injection(self, plan_file,
                                                       tmp_path):
        report_path = tmp_path / "report.json"
        assert chaos_cli(["vecadd", "--scale", "0.05", "--seed", "3",
                          "--interfere", str(plan_file),
                          "--save-report", str(report_path)]) == EXIT_OK
        payload = json.loads(report_path.read_text())
        assert payload["interfere"]["seed"] == 0
        assert payload["rows"][0]["injected_messages"] > 0

    def test_plain_chaos_report_has_no_interfere_keys(self, tmp_path):
        report_path = tmp_path / "report.json"
        assert chaos_cli(["vecadd", "--scale", "0.05",
                          "--save-report", str(report_path)]) == EXIT_OK
        payload = json.loads(report_path.read_text())
        assert "interfere" not in payload
        assert all("injected_messages" not in row
                   for row in payload["rows"])

    def test_missing_fault_plan_is_usage_error_not_traceback(self,
                                                             tmp_path):
        with pytest.raises(SystemExit) as exc:
            chaos_cli(["vecadd", "--plan", str(tmp_path / "nope.json")])
        assert exc.value.code == EXIT_USAGE

    def test_broken_fault_plan_is_usage_error(self, broken_file):
        with pytest.raises(SystemExit) as exc:
            chaos_cli(["vecadd", "--plan", str(broken_file)])
        assert exc.value.code == EXIT_USAGE

    def test_missing_interfere_plan_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            chaos_cli(["vecadd", "--interfere",
                       str(tmp_path / "nope.json")])
        assert exc.value.code == EXIT_USAGE

    def test_broken_interfere_plan_is_usage_error(self, broken_file):
        with pytest.raises(SystemExit) as exc:
            chaos_cli(["vecadd", "--interfere", str(broken_file)])
        assert exc.value.code == EXIT_USAGE

    def test_wrong_kind_fault_plan_is_usage_error(self, plan_file):
        with pytest.raises(SystemExit) as exc:
            chaos_cli(["vecadd", "--plan", str(plan_file)])
        assert exc.value.code == EXIT_USAGE

    def test_non_object_fault_plan_is_usage_error(self, list_file):
        with pytest.raises(SystemExit) as exc:
            chaos_cli(["vecadd", "--plan", str(list_file)])
        assert exc.value.code == EXIT_USAGE

    def test_wrong_kind_interfere_plan_is_usage_error(self,
                                                      fault_plan_file):
        with pytest.raises(SystemExit) as exc:
            chaos_cli(["vecadd", "--interfere", str(fault_plan_file)])
        assert exc.value.code == EXIT_USAGE


class TestPlanLoaders:
    LOADERS = [FaultPlan.from_json, HostTrafficPlan.from_json,
               MigrationPlan.from_json, FaultEventLog.from_json]

    @pytest.mark.parametrize("load", LOADERS)
    @pytest.mark.parametrize("text", ["[1, 2]", "7", '"plan"', "null"])
    def test_wrong_top_level_type_raises(self, load, text):
        with pytest.raises(ValueError):
            load(text)

    @pytest.mark.parametrize("load", LOADERS[:3])
    def test_unknown_top_level_key_raises(self, load):
        with pytest.raises(ValueError, match="not a"):
            load('{"seed": 0, "bogus": 1}')

    def test_plans_reject_each_other(self):
        fault = FaultPlan.generate(0, 0.05).to_json()
        host = HostTrafficPlan.generate(0).to_json()
        with pytest.raises(ValueError):
            HostTrafficPlan.from_json(fault)
        with pytest.raises(ValueError):
            FaultPlan.from_json(host)
        with pytest.raises(ValueError):
            MigrationPlan.from_json(fault)
        with pytest.raises(ValueError):
            FaultEventLog.from_json(fault)

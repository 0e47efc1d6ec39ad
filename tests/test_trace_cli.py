"""``python -m repro trace`` / ``python -m repro info`` CLI contracts.

Pins the trace CLI's round-trips (``--out``/``--metrics``/``--top``),
its jobs-independence (``--jobs 1`` and ``--jobs 2`` write byte-identical
files), the ``--diff``/``--validate`` exit codes, and the uniform CLI
conventions (exit codes, ``--seed``) across subcommands.
"""

import json

import pytest

from repro.harness.cliutil import (EXIT_FAILURE, EXIT_OK, EXIT_USAGE,
                                   add_seed_argument)
from repro.obs.cli import cli as trace_cli
from repro.obs.cli import run_trace

SCALE = 0.05


@pytest.fixture(scope="module")
def traced_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace-cli")
    trace_path = out / "trace.json"
    metrics_json = out / "metrics.json"
    metrics_csv = out / "metrics.csv"
    rc = trace_cli(["vecadd", "--scale", str(SCALE), "--top", "3",
                    "--out", str(trace_path),
                    "--metrics", str(metrics_json)])
    assert rc == EXIT_OK
    rc = trace_cli(["vecadd", "--scale", str(SCALE),
                    "--metrics", str(metrics_csv)])
    assert rc == EXIT_OK
    return trace_path, metrics_json, metrics_csv


class TestTraceCli:
    def test_out_is_valid_chrome_trace(self, traced_files):
        trace_path, _, _ = traced_files
        from repro.obs.export import validate_chrome_trace
        obj = json.loads(trace_path.read_text())
        assert validate_chrome_trace(obj) == []
        assert obj["otherData"]["targets"] == ["vecadd"]

    def test_metrics_json_roundtrip(self, traced_files):
        _, metrics_json, _ = traced_files
        data = json.loads(metrics_json.read_text())
        (label,) = data.keys()
        assert "vecadd" in label
        assert data[label]["run_cycles"] > 0

    def test_metrics_csv_has_header_and_rows(self, traced_files):
        _, _, metrics_csv = traced_files
        lines = metrics_csv.read_text().splitlines()
        assert lines[0] == "run,metric,value"
        assert len(lines) > 10

    def test_validate_subcommand(self, traced_files, tmp_path, capsys):
        trace_path, _, _ = traced_files
        assert trace_cli(["--validate", str(trace_path)]) == EXIT_OK
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"traceEvents": [{"ph": "Z", "name": 3}]}))
        assert trace_cli(["--validate", str(bad)]) == EXIT_FAILURE
        capsys.readouterr()

    def test_diff_identical_and_different(self, traced_files, tmp_path,
                                          capsys):
        trace_path, _, _ = traced_files
        assert trace_cli(["--diff", str(trace_path),
                          str(trace_path)]) == EXIT_OK
        other = tmp_path / "other.json"
        obj = json.loads(trace_path.read_text())
        obj["traceEvents"] = obj["traceEvents"][:-1]
        other.write_text(json.dumps(obj))
        assert trace_cli(["--diff", str(trace_path),
                          str(other)]) == EXIT_FAILURE
        capsys.readouterr()

    def test_unknown_target_exits_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            trace_cli(["no_such_workload"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_jobs_byte_identity(self, tmp_path, capsys):
        paths = {}
        for jobs in (1, 2):
            t = tmp_path / f"t{jobs}.json"
            m = tmp_path / f"m{jobs}.json"
            rc = trace_cli(["vecadd", "pr_push", "--scale", str(SCALE),
                            "--jobs", str(jobs), "--out", str(t),
                            "--metrics", str(m)])
            assert rc == EXIT_OK
            paths[jobs] = (t, m)
        capsys.readouterr()
        assert paths[1][0].read_bytes() == paths[2][0].read_bytes()
        assert paths[1][1].read_bytes() == paths[2][1].read_bytes()

    def test_experiment_target_traces_every_machine(self):
        payload = run_trace(["table1"], scale=SCALE)
        # tables build no machines; the payload is simply empty
        assert payload["states"] == []
        payload = run_trace(["vecadd"], scale=SCALE)
        assert len(payload["states"]) == 1
        assert payload["states"][0]["pid"] == 0


class TestInfoCli:
    def test_json_payload(self, capsys):
        from repro.harness.info import cli as info_cli
        assert info_cli(["--json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["version"]
        assert data["defaults"] == {"seed": 0, "scale": 0.12, "jobs": 1}
        assert "vecadd" in data["workloads"]
        assert "fig12" in data["experiments"]
        assert "trace" in data["subcommands"]
        assert data["cache"]["dir"]

    def test_text_mentions_registries(self, capsys):
        from repro.harness.info import cli as info_cli
        assert info_cli([]) == EXIT_OK
        out = capsys.readouterr().out
        assert "workloads" in out and "experiments" in out

    def test_every_dispatchable_subcommand_listed(self, capsys):
        from repro.__main__ import SUBCOMMANDS, main
        from repro.harness.info import cli as info_cli
        assert info_cli(["--json"]) == EXIT_OK
        listed = json.loads(capsys.readouterr().out)["subcommands"]
        assert "interfere" in listed
        for name in SUBCOMMANDS:
            assert name in listed
            with pytest.raises(SystemExit) as exc:  # it really dispatches
                main([name, "--help"])
            assert exc.value.code == EXIT_OK
        capsys.readouterr()

    def test_json_reports_resolved_kernels(self, capsys):
        from repro.harness.info import cli as info_cli
        from repro.perf import kernels
        assert info_cli(["--json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["kernels"] == kernels.backend_info()

    def test_text_shows_kernel_backend(self, capsys):
        from repro.harness.info import cli as info_cli
        from repro.perf import kernels
        info = kernels.backend_info()
        assert info_cli([]) == EXIT_OK
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("kernels"))
        want = info["kernels"] + (f" ({info['cc']})" if info["cc"] else "")
        assert line == f"kernels    : {want}"


class TestCacheEnvUsageErrors:
    """Unusable cache settings exit 2 with a message, not a traceback."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self, monkeypatch):
        from repro import cache as cache_mod
        monkeypatch.setattr(cache_mod, "_CACHE", None)

    @pytest.fixture(params=["fig4", "info"])
    def entry(self, request):
        return [request.param] + (["--scale", "0.02", "--no-lint"]
                                  if request.param == "fig4" else [])

    def _usage_error(self, argv, capsys):
        from repro.__main__ import main
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        return capsys.readouterr().err

    def test_cache_dir_is_a_file(self, entry, tmp_path, monkeypatch,
                                 capsys):
        blocker = tmp_path / "plain-file"
        blocker.write_text("not a directory")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker))
        assert "is not a directory" in self._usage_error(entry, capsys)

    def test_cache_dir_under_a_file(self, entry, tmp_path, monkeypatch,
                                    capsys):
        blocker = tmp_path / "plain-file"
        blocker.write_text("not a directory")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "sub"))
        assert "is not a directory" in self._usage_error(entry, capsys)

    @pytest.mark.parametrize("var", ["REPRO_CACHE_MAX_BYTES",
                                     "REPRO_CACHE_MEM_BYTES"])
    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_bad_byte_count(self, entry, var, value, tmp_path, monkeypatch,
                            capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv(var, value)
        err = self._usage_error(entry, capsys)
        assert var in err and "byte count" in err

    def test_typed_error_from_constructor(self, tmp_path, monkeypatch):
        from repro.cache import ArtifactCache, CacheConfigError
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "abc")
        with pytest.raises(CacheConfigError):
            ArtifactCache(root=tmp_path)
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "4096")
        assert ArtifactCache(root=tmp_path).max_bytes == 4096


class TestUniformCliConventions:
    def test_exit_code_constants(self):
        assert (EXIT_OK, EXIT_FAILURE, EXIT_USAGE) == (0, 1, 2)

    def test_add_seed_argument(self):
        import argparse
        p = argparse.ArgumentParser()
        add_seed_argument(p, default=7)
        assert p.parse_args([]).seed == 7
        assert p.parse_args(["--seed", "3"]).seed == 3

    def test_every_subcommand_accepts_seed(self):
        """--seed parses everywhere (uniformity contract from README)."""
        import argparse

        from repro.analysis.lint import cli as lint_cli
        from repro.harness.arms import autoplace_cli, chaos_cli
        from repro.perf.bench import cli as bench_cli

        # parse-only probes: invalid second flag aborts before running
        for cli_fn in (lint_cli, chaos_cli, autoplace_cli, bench_cli,
                       trace_cli):
            with pytest.raises(SystemExit) as exc:
                cli_fn(["--seed", "1", "--definitely-not-a-flag"])
            assert exc.value.code == EXIT_USAGE, cli_fn
        # argparse must know --seed for all of them: a bad *value* also
        # exits 2, but an unknown --seed flag would print its own error
        for cli_fn in (lint_cli, chaos_cli, autoplace_cli, bench_cli,
                       trace_cli):
            with pytest.raises(SystemExit):
                argparse_probe = ["--seed", "not-an-int"]
                cli_fn(argparse_probe)

"""The figure wall-time benches: runner, JSON writer, CLI.

A real figure bench takes seconds, so these tests swap stubs into
``bench._BENCHES`` (or stub the figure itself) and check the plumbing
around them: payload schema, seed/size routing, profiling, and usage
errors that must exit 2 before any bench runs.
"""

import json

import pytest

from repro.harness.cliutil import EXIT_USAGE
from repro.perf import bench
from repro.perf.bench import BENCH_NAMES, cli, run_benches, write_bench_json


@pytest.fixture
def calls(monkeypatch):
    """Replace both benches with stubs; returns the ``(name, sizes)``
    calls they receive."""
    seen = []

    def _stub(name):
        def _run(sizes):
            seen.append((name, dict(sizes)))
            return {f"{name}_end_to_end": bench._metric(
                0.5, 1, {"seed": sizes["fig12_seed"]})}
        return _run

    monkeypatch.setattr(bench, "_BENCHES",
                        {name: _stub(name) for name in BENCH_NAMES})
    return seen


class TestRunBenches:
    def test_schema(self, calls):
        payload = run_benches(["fig12"], smoke=True)["fig12"]
        assert payload["bench"] == "fig12"
        assert payload["schema"] == 2
        assert payload["smoke"] is True
        for key in ("python", "numpy", "platform", "cpu_count",
                    "cpu_affinity", "kernels", "cc", "timestamp"):
            assert key in payload["env"]
        m = payload["metrics"]["fig12_end_to_end"]
        assert set(m) == {"seconds", "calls", "params"}

    def test_unknown_bench_rejected(self, calls):
        with pytest.raises(ValueError, match="unknown bench"):
            run_benches(["nope"])
        assert calls == []

    def test_seed_and_sizes_reach_every_bench(self, calls):
        run_benches(["fig12", "fig12_full"], smoke=True, seed=7)
        assert [name for name, _ in calls] == ["fig12", "fig12_full"]
        for _, sizes in calls:
            assert sizes == {**bench._SMOKE, "fig12_seed": 7}
        calls.clear()
        run_benches(["fig12_full"])
        assert calls == [("fig12_full", {**bench._FULL, "fig12_seed": 0})]

    def test_profile_dumps_prof_and_keeps_payload(self, calls, tmp_path):
        payload = run_benches(["fig12"], profile_dir=tmp_path)["fig12"]
        assert (tmp_path / "BENCH_fig12.prof").stat().st_size > 0
        assert list(payload["metrics"]) == ["fig12_end_to_end"]

    def test_json_roundtrip(self, calls, tmp_path):
        payloads = run_benches(["fig12", "fig12_full"], smoke=True)
        paths = write_bench_json(payloads, tmp_path / "new")
        assert [p.name for p in paths] == ["BENCH_fig12.json",
                                           "BENCH_fig12_full.json"]
        for path, payload in zip(paths, payloads.values()):
            assert json.loads(path.read_text()) == payload


class TestFig12Bench:
    """``_bench_fig12`` around a stubbed figure."""

    @pytest.fixture
    def figure(self, monkeypatch):
        from repro.harness import experiments, runner

        calls = []
        monkeypatch.setattr(experiments, "fig12_overall",
                            lambda scale, seed: calls.append((scale, seed)))
        monkeypatch.setattr(runner, "_run_one", lambda *args: None)
        return calls

    def test_metrics_and_params(self, figure):
        metrics = bench._bench_fig12({**bench._SMOKE, "fig12_seed": 3})
        assert list(metrics) == ["fig12_end_to_end", "fig12_cache_cold"]
        for m in metrics.values():
            assert m["params"] == {"scale": bench._SMOKE["fig12_scale"],
                                   "seed": 3}
        # one untimed warmup, then best of three
        assert figure == [(bench._SMOKE["fig12_scale"], 3)] * 4


class TestCli:
    def test_writes_json_and_exits_zero(self, calls, tmp_path, capsys):
        rc = cli(["--smoke", "--only", "fig12_full", "--seed", "4",
                  "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "BENCH_fig12_full.json").read_text())
        assert payload["metrics"]["fig12_full_end_to_end"]["params"] == \
            {"seed": 4}
        assert "wrote" in capsys.readouterr().out

    def test_default_runs_every_bench(self, calls, tmp_path):
        assert cli(["--out", str(tmp_path)]) == 0
        assert [name for name, _ in calls] == list(BENCH_NAMES)

    def test_unknown_bench_name_rejected(self, calls, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli(["--only", "bogus", "--out", str(tmp_path)])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["--only", ""],
        ["--only", ","],
        ["--smoke", "--only", "fig12_full", "--out", "{file}"],
        ["--seed", "-1"],
    ], ids=["only-empty", "only-comma", "out-is-a-file", "negative-seed"])
    def test_usage_errors_exit_2_before_any_bench(self, calls, tmp_path,
                                                   argv):
        existing = tmp_path / "existing"
        existing.write_text("keep me\n")
        argv = [a.format(file=existing) for a in argv]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            cli(argv)
        assert exc.value.code == EXIT_USAGE
        assert calls == []
        assert existing.read_text() == "keep me\n"

    def test_help_has_no_compare_flags(self, capsys):
        with pytest.raises(SystemExit):
            cli(["--help"])
        out = capsys.readouterr().out
        for flag in ("--compare", "--baseline", "--threshold"):
            assert flag not in out

    def test_bench_names_cover_issue_artifacts(self):
        # The committed BENCH_*.json at the repo root, and nothing else.
        assert BENCH_NAMES == ("fig12", "fig12_full")
        assert set(bench._BENCHES) == set(BENCH_NAMES)

"""Direct tests for the ASCII report renderer and the run recorder.

Both modules predate this suite and were only covered transitively
through the experiment tests; this pins their contracts directly —
table geometry and float formatting for ``harness.report``, and the
event-sink/phase-delta semantics for ``perf.stats`` (including the
relayout accounting phases the migration engine appends).
"""

import numpy as np
import pytest

from repro.arch.noc import MessageClass
from repro.harness.report import ascii_table, render
from repro.machine import Machine
from repro.perf.stats import RunRecorder


# ----------------------------------------------------------------------
# harness.report
# ----------------------------------------------------------------------
class TestAsciiTable:
    def test_geometry_and_alignment(self):
        out = ascii_table(["name", "x"], [["a", 1], ["longer", 22]])
        lines = out.split("\n")
        assert len(lines) == 4  # header, separator, two rows
        assert len({len(ln) for ln in lines}) == 1  # fixed width
        assert lines[0].startswith("name")
        assert lines[1].strip("-+") == ""

    def test_floats_formatted_uniformly(self):
        out = ascii_table(["v"], [[1.23456], [2.0]])
        assert "1.235" in out and "2.000" in out
        assert "1.23456" not in out

    def test_custom_float_format(self):
        out = ascii_table(["v"], [[1.23456]], float_fmt="{:.1f}")
        assert "1.2" in out and "1.235" not in out

    def test_non_floats_pass_through(self):
        out = ascii_table(["a", "b"], [[3, "x"]])
        assert " 3 " not in out.split("\n")[1]  # separator has no data
        assert "3" in out and "x" in out

    def test_empty_rows_render_header_only(self):
        out = ascii_table(["h1", "h2"], [])
        assert out.split("\n") == ["h1 | h2", "---+---"]

    def test_column_width_tracks_widest_cell(self):
        out = ascii_table(["h"], [["wide-cell-value"]])
        header, sep, row = out.split("\n")
        assert len(header) == len(row) == len("wide-cell-value")


class TestRender:
    def test_renders_title_and_rows(self):
        class R:
            title = "My Result"
            headers = ["k", "v"]

            def rows(self):
                return [["a", 1.0]]

        out = render(R())
        assert out.startswith("== My Result ==\n")
        assert "a" in out and "1.000" in out

    def test_autoplace_report_has_migration_columns(self):
        # The relayout report rides the same renderer; its migration
        # columns must survive the table pass.
        from repro.harness.arms import AutoplaceReport
        from repro.relayout.policy import RelayoutConfig
        report = AutoplaceReport(
            config=RelayoutConfig(), scale=1.0, seed=0,
            rows=[{"scenario": "s1", "workload": "w",
                   "static": {"cycles": 200.0, "locality": 0.5},
                   "online": {"cycles": 100.0, "locality": 0.9},
                   "migrations": 3, "moved_bytes": 2048.0,
                   "post_locality": 1.0}])
        out = report.render()
        header = out.split("\n")[1]
        for col in ("migrations", "moved KiB", "recovered",
                    "loc static", "loc final"):
            assert col in header
        assert "2.000x" in out  # 200/100 recovered speedup
        assert "MigrationPlan(empty)" in out

    def test_fig_relayout_headers_include_migrations(self):
        from repro.harness import runner
        assert "relayout" in runner.EXPERIMENTS


# ----------------------------------------------------------------------
# perf.stats
# ----------------------------------------------------------------------
@pytest.fixture
def rec():
    return RunRecorder(Machine())


class TestEventSinks:
    def test_scalar_and_array_accumulate(self, rec):
        rec.add_bank_accesses(3)
        rec.add_bank_accesses(np.array([3, 3, 5]), count=2.0)
        assert rec.bank_line_accesses[3] == 5.0
        assert rec.bank_line_accesses[5] == 2.0

    def test_per_index_counts_broadcast(self, rec):
        rec.add_serial_cycles(np.array([0, 1]), np.array([10.0, 20.0]))
        assert rec.core_serial_cycles[0] == 10.0
        assert rec.core_serial_cycles[1] == 20.0

    def test_out_of_range_index_raises(self, rec):
        with pytest.raises(ValueError):
            rec.add_bank_accesses(rec.machine.num_banks)
        with pytest.raises(ValueError):
            rec.add_core_ops(-1)

    def test_each_sink_hits_its_own_counter(self, rec):
        rec.add_bank_atomics(1)
        rec.add_remote_reqs(2)
        rec.add_near_ops(3)
        rec.add_private_accesses(7.0)
        assert rec.bank_atomics[1] == 1.0
        assert rec.bank_remote_reqs[2] == 1.0
        assert rec.bank_near_ops[3] == 1.0
        assert rec.private_line_accesses == 7.0
        assert rec.bank_line_accesses.sum() == 0.0

    def test_stream_locality_fraction(self, rec):
        assert rec.stream_local_fraction is None
        rec.add_stream_locality(100.0, 25.0)
        assert rec.stream_local_fraction == 0.75


class TestPhases:
    def test_end_phase_records_deltas_not_totals(self, rec):
        rec.add_bank_accesses(0, count=5.0)
        p1 = rec.end_phase("one")
        rec.add_bank_accesses(0, count=3.0)
        p2 = rec.end_phase("two")
        assert p1.bank_line_accesses[0] == 5.0
        assert p2.bank_line_accesses[0] == 3.0
        assert rec.bank_line_accesses[0] == 8.0  # totals keep running
        assert [p.label for p in rec.phases] == ["one", "two"]

    def test_phase_captures_traffic_deltas(self, rec):
        rec.traffic.record(0, 1, 64, MessageClass.DATA)
        p = rec.end_phase("t")
        assert p.total_flits() == 3.0
        rec.end_phase("empty")
        assert rec.phases[-1].total_flits() == 0.0

    def test_has_open_phase_and_close(self, rec):
        assert not rec.has_open_phase()
        rec.add_core_ops(0)
        assert rec.has_open_phase()
        rec.close()
        assert rec.phases[-1].label == "tail"
        assert not rec.has_open_phase()
        rec.close()  # idempotent: no second tail
        assert sum(1 for p in rec.phases if p.label == "tail") == 1

    def test_stream_locality_stays_out_of_snapshots(self, rec):
        rec.add_stream_locality(10.0, 5.0)
        assert not rec.has_open_phase()

    def test_relayout_epoch_appends_accounting_phase(self):
        # End-to-end: a drifting run inside a relayout session closes a
        # dedicated "relayout@<epoch>" phase carrying the migration cost.
        from repro.nsc.engine import EngineMode
        from repro.relayout.engine import relayout_session
        from repro.relayout.policy import RelayoutConfig
        from repro.workloads import run_workload
        with relayout_session(RelayoutConfig()):
            r = run_workload("stream_flip", EngineMode.AFF_ALLOC,
                             scale=0.1, seed=0)
        labels = [p.label for p in r.phases]
        relabels = [lb for lb in labels if lb.startswith("relayout@")]
        assert relabels, f"no relayout phase in {labels}"


# ----------------------------------------------------------------------
# Shared report helpers (harness.report)
# ----------------------------------------------------------------------
class TestSharedHelpers:
    def test_ratio_guards_zero_denominator(self):
        from repro.harness.report import ratio
        assert ratio(6.0, 3.0) == 2.0
        assert ratio(6.0, 0.0) == 1.0
        assert ratio(6.0, 0.0, default=0.0) == 0.0

    def test_section_house_style(self):
        from repro.harness.report import section
        assert section("Title", "body") == "== Title ==\nbody"

    def test_run_metrics_matches_result_fields(self):
        from repro.harness.report import run_metrics

        class R:
            cycles = 100.0
            total_flit_hops = 42.0
            l3_miss_pct = 7.0
            counters = {"stream_elem_accesses": 10.0,
                        "stream_remote_accesses": 4.0}

        m = run_metrics(R())
        assert m == {"cycles": 100.0, "flit_hops": 42.0,
                     "l3_miss_pct": 7.0, "locality": 0.6}

    def test_run_metrics_locality_defaults_to_one(self):
        from repro.harness.report import run_metrics

        class R:
            cycles = 1.0
            total_flit_hops = 0.0
            l3_miss_pct = 0.0
            counters = {}

        assert run_metrics(R())["locality"] == 1.0

    def test_chaos_and_autoplace_use_the_shared_metrics(self):
        # the dedup contract: the arm-comparison module (chaos and
        # autoplace presets) carries no _metrics of its own
        import repro.harness.arms as arms
        from repro.harness.report import run_metrics
        assert not hasattr(arms, "_metrics")
        assert arms.run_metrics is run_metrics


class TestAttributionTable:
    def _result(self):
        class R:
            phase_cycles = [("setup", 10.0), ("stream", 90.0)]
            phase_resources = [
                ("setup", {"core": 10.0, "bank": 2.0, "link": 1.0,
                           "serial": 0.0}),
                ("stream", {"core": 5.0, "bank": 60.0, "link": 90.0,
                            "serial": 0.0}),
            ]
        return R()

    def test_bottleneck_and_percentages(self):
        from repro.harness.report import attribution_table
        out = attribution_table(self._result())
        lines = out.split("\n")
        assert "bottleneck" in lines[0]
        setup_row = next(ln for ln in lines if ln.startswith("setup"))
        stream_row = next(ln for ln in lines if ln.startswith("stream"))
        assert "core" in setup_row and "10.0%" in setup_row
        assert "link" in stream_row and "90.0%" in stream_row

    def test_degrades_without_phase_resources(self):
        from repro.harness.report import attribution_table

        class R:
            phase_cycles = [("tail", 50.0)]
            phase_resources = []

        out = attribution_table(R())
        assert "bottleneck" not in out
        assert "tail" in out and "100.0%" in out

    def test_real_run_attribution(self):
        from repro.harness.report import attribution_table
        from repro.nsc.engine import EngineMode
        from repro.workloads import run_workload
        r = run_workload("vecadd", EngineMode.AFF_ALLOC, scale=0.05, seed=0)
        assert r.phase_resources  # populated by PerfModel.evaluate
        out = attribution_table(r)
        assert "tail" in out
        # per-phase duration is the max over resources, by construction
        for (lbl, res), (_lbl2, cyc) in zip(r.phase_resources,
                                            r.phase_cycles):
            assert max(res.values()) == cyc

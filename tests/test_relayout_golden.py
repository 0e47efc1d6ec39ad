"""Relayout golden suite: pinned recovery metrics + plan structure.

Freezes the canonical autoplace run — the three shipped phase-change
scenarios at ``scale=1.0, seed=0`` under the default
:class:`RelayoutConfig` — against ``tests/golden/relayout_*.json``:
static/online cycles, recovered speedup, migration count, moved bytes,
and the post-migration stream locality.  Regenerate the goldens
deliberately when a modeling change is intentional.

Also pins structural invariants of the merged migration plan: every
migration applied, every one a ROTATE (the canonical scenarios drift by
pure bank offsets), and the plan replays clean through afflint's RLY
audit with the per-epoch bound enforced.

The canonical report's JSON and rendered text and the merged plan's
JSON are pinned by sha256, so a refactor of the report code cannot move
a byte.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.harness.arms import DEFAULT_SCENARIOS, run_autoplace
from repro.relayout.plan import MigrationKind
from repro.relayout.policy import RelayoutConfig

GOLDEN_DIR = Path(__file__).parent / "golden"

SCALE = 1.0
SEED = 0


def load_golden(name):
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def check(label, actual, spec):
    want = spec["value"]
    if "rtol" in spec:
        ok = math.isclose(actual, want, rel_tol=spec["rtol"])
        tol = f"rtol={spec['rtol']}"
    else:
        ok = abs(actual - want) <= spec["atol"]
        tol = f"atol={spec['atol']}"
    assert ok, (f"{label} drifted: got {actual!r}, golden {want!r} "
                f"({tol}) — if the change is intentional, update "
                f"tests/golden/relayout_*.json")


@pytest.fixture(scope="module")
def canonical_report():
    return run_autoplace(DEFAULT_SCENARIOS, RelayoutConfig(seed=SEED),
                         scale=SCALE, seed=SEED, jobs=1)


def _row(report, scenario):
    return next(r for r in report.rows if r["scenario"] == scenario)


class TestCanonicalGolden:
    @pytest.mark.parametrize("scenario", DEFAULT_SCENARIOS)
    def test_recovery_metrics_match_golden(self, canonical_report, scenario):
        golden = load_golden(f"relayout_{scenario}")
        row = _row(canonical_report, scenario)
        m = golden["metrics"]
        check(f"{scenario} static cycles", row["static"]["cycles"],
              m["static_cycles"])
        check(f"{scenario} online cycles", row["online"]["cycles"],
              m["online_cycles"])
        check(f"{scenario} recovered speedup",
              canonical_report.recovered(row), m["recovered_speedup"])
        check(f"{scenario} static locality", row["static"]["locality"],
              m["static_locality"])
        check(f"{scenario} post locality", row["post_locality"],
              m["post_locality"])

    @pytest.mark.parametrize("scenario", DEFAULT_SCENARIOS)
    def test_migration_counts_match_golden(self, canonical_report, scenario):
        golden = load_golden(f"relayout_{scenario}")
        row = _row(canonical_report, scenario)
        assert row["migrations"] == golden["counts"]["migrations"]
        assert row["moved_bytes"] == golden["counts"]["moved_bytes"]

    @pytest.mark.parametrize("scenario", DEFAULT_SCENARIOS)
    def test_online_beats_static(self, canonical_report, scenario):
        # The headline claim: migration cost included, online still wins.
        row = _row(canonical_report, scenario)
        assert row["online"]["cycles"] < row["static"]["cycles"]
        assert row["post_locality"] == pytest.approx(1.0)

    @pytest.mark.parametrize("part, digest", [
        ("report", "362ddccbfe4be012966679f11db7ab06"
                   "5dc0d43a7108c00d1a39093a5957d66d"),
        ("render", "f26bbafc908a2d392c7da24dba59a6ef"
                   "d2e4d8ccbe1ad488330d72c6865d15a2"),
        ("plan", "698cba1c6111f80ed9b5ae3f547443f3"
                 "2029da0662a217ca03b4a64ca894449e"),
    ])
    def test_bytes_pinned(self, canonical_report, part, digest):
        text = {"report": canonical_report.to_json,
                "render": canonical_report.render,
                "plan": canonical_report.plan.to_json}[part]()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, part

    def test_golden_config_digest_matches_defaults(self):
        # A silent default-config change would invalidate every pinned
        # number; fail loudly here instead.
        for scenario in DEFAULT_SCENARIOS:
            golden = load_golden(f"relayout_{scenario}")
            assert golden["config_digest"] == RelayoutConfig(seed=SEED).digest()


class TestCanonicalPlan:
    def test_all_migrations_are_applied_rotations(self, canonical_report):
        plan = canonical_report.plan
        assert not plan.is_empty
        assert all(m.applied for m in plan.migrations)
        assert all(m.kind is MigrationKind.ROTATE for m in plan.migrations)

    def test_plan_replays_clean_through_afflint(self, canonical_report):
        report = canonical_report.plan.to_diagnostics(num_banks=64)
        assert not report.has_errors
        notes = [d for d in report if d.code == "RLY002"]
        assert len(notes) == canonical_report.plan.applied_count()

    def test_per_epoch_bound_respected(self, canonical_report):
        plan = canonical_report.plan
        per_epoch = {}
        for m in plan.migrations:
            if m.applied:
                key = (m.task, m.epoch)
                per_epoch[key] = per_epoch.get(key, 0) + 1
        assert per_epoch  # something migrated
        assert max(per_epoch.values()) <= plan.max_per_epoch

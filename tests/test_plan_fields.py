"""Plans, logs and scenario configs: pinned bytes, field validation.

A refactor of the serialization code must not move a saved byte or a
digest that keys the artifact cache, so both are pinned by sha256.

Every class on :class:`repro.serial.Serial` is fuzzed one field at a
time: starting from a valid value, one field at a random path gets a
wrong type, a non-finite number, an out-of-range value, a dropped
required key or an unknown key, and ``from_dict`` must raise a
:class:`PlanFieldError` naming exactly that path.  The CLI cases check
that such a file ends in exit 2 with the path in the message.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import lint
from repro.config import config_for_mesh
from repro.faults.log import FaultEventLog, FaultRecord
from repro.faults.plan import FaultPlan
from repro.harness.arms import chaos_cli, interfere_cli
from repro.harness.cliutil import EXIT_USAGE
from repro.interfere.engine import InterferenceSession
from repro.interfere.plan import HostStream, HostStreamKind, HostTrafficPlan
from repro.machine import Machine
from repro.obs.tracer import TraceConfig
from repro.relayout.plan import Migration, MigrationKind, MigrationPlan
from repro.relayout.policy import RelayoutConfig
from repro.serial import PlanFieldError


def migration_plan() -> MigrationPlan:
    """A hand-built plan with one applied and one skipped migration."""
    return MigrationPlan(migrations=(
        Migration(MigrationKind.ROTATE, "a", "e0", task="t",
                  src_banks=(1, 2), dst_banks=(3, 4), moved_bytes=4096.0,
                  detail="d"),
        Migration(MigrationKind.SWAP, "3<->5", "e1", applied=False),
    ), seed=1, max_per_epoch=2)


def fault_log() -> FaultEventLog:
    return FaultEventLog([
        FaultRecord("vecadd", "bank-fail", "9", "rehomed",
                    detail="IOT remap bank 9 -> bank 1", count=4096.0),
        FaultRecord("", "link-fail", "9-10", "rerouted")])


#: One valid value per class (every fault kind appears at rate 0.3).
VALUES = {
    "FaultPlan": lambda: FaultPlan.generate(0, 0.3, tasks=3),
    "FaultEventLog": fault_log,
    "HostTrafficPlan": lambda: HostTrafficPlan.generate(0),
    "MigrationPlan": migration_plan,
    "RelayoutConfig": RelayoutConfig,
    "TraceConfig": TraceConfig,
}
CLASSES = {"FaultPlan": FaultPlan, "FaultEventLog": FaultEventLog,
           "HostTrafficPlan": HostTrafficPlan, "MigrationPlan": MigrationPlan,
           "RelayoutConfig": RelayoutConfig, "TraceConfig": TraceConfig}


class TestPins:
    @pytest.mark.parametrize("name, digest", [
        ("fault_plan", "8a95202dbc7f8cd4ebdda02336faf29f"
                       "d3cc107d7c91f4c77485456b3fe6cc69"),
        ("host_plan", "21ad18255e69eebcf7554b4df4465ff0"
                      "3e27208eff81499bfe5fefd104f911a0"),
        ("migration_plan", "cfdd571869face189e4df685a5cc0778"
                           "584751ef9b920a07223deb9ab8cf6418"),
    ])
    def test_saved_bytes_pinned(self, tmp_path, name, digest):
        value = {"fault_plan": lambda: FaultPlan.generate(0, 0.05, tasks=2),
                 "host_plan": lambda: HostTrafficPlan.generate(0),
                 "migration_plan": migration_plan}[name]()
        path = tmp_path / f"{name}.json"
        value.save(path)
        data = path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name
        assert data.endswith(b"}\n") and not data.endswith(b"\n\n")

    def test_trace_config_digest_pinned(self):
        assert TraceConfig().digest() == "e8611993d394"

    def test_scaled_host_plan_digest_pinned(self):
        assert HostTrafficPlan.generate(0).scaled(2.0).digest() \
            == "f3c5dee8a5c9"

    def test_fault_plan_digest_pinned(self):
        # The compact, key-sorted form every Serial digest shares.
        assert FaultPlan.generate(0, 0.05, tasks=2).digest() == "44bc7090b96c"

    def test_newline_conventions(self):
        assert MigrationPlan().to_json().endswith("}\n")
        for plan in (FaultPlan(), HostTrafficPlan(), FaultEventLog()):
            assert not plan.to_json().endswith("\n")


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(VALUES))
    def test_save_load_save_bytes(self, tmp_path, name):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        value = VALUES[name]()
        value.save(first)
        loaded = CLASSES[name].load(first)
        assert loaded == value
        loaded.save(second)
        assert first.read_bytes() == second.read_bytes()


# -- field-level fuzzing ------------------------------------------------------
NAN, INF = float("nan"), float("inf")

#: Wrong-typed replacements by the JSON type of the valid value.
WRONG_TYPE = {
    bool: [1, 0, "true", "false", None],
    int: [1.7, 2.0, True, "1", None, [1]],
    float: [NAN, INF, -INF, "nan", "1e400", 10 ** 400, True, None, [1.0]],
    str: [1, None, True, ["x"]],
    list: [5, "12", {}, None],
    dict: [5, [], "x", None],
}

#: Out-of-range replacements by (class, path pattern); ``*`` matches
#: any list index.
OUT_OF_RANGE = {
    "FaultPlan": {
        ("seed",): [-1], ("rate",): [-0.5, 1.5, 1e18],
        ("events", "*", "kind"): ["meteor"],
        ("events", "*", "target"): [-1],
        ("events", "*", "param"): [-5],
        ("events", "*", "phase"): ["later", ""],
    },
    "HostTrafficPlan": {
        ("seed",): [-1], ("intensity",): [-1.0],
        ("streams", "*", "kind"): ["dma"],
        ("streams", "*", "tile"): [-1],
        ("streams", "*", "targets"): [[]],
        ("streams", "*", "targets", "*"): [-3],
        ("streams", "*", "intensity"): [-0.1],
        ("streams", "*", "start"): [-2],
        ("streams", "*", "stop"): [-5, 0],
        ("streams", "*", "burst"): [1.0, -0.1],
    },
    "FaultEventLog": {("records", "*", "action"): ["exploded"]},
    "MigrationPlan": {("migrations", "*", "kind"): ["teleport"]},
}

#: Required keys of every object, by the path pattern of the object.
REQUIRED = {
    ("events", "*"): ("kind", "target"),
    ("streams", "*"): ("kind", "tile", "targets", "intensity"),
    ("records", "*"): ("task", "kind", "target", "action"),
    ("migrations", "*"): ("kind", "target", "epoch"),
}


def _pattern(path):
    return tuple("*" if isinstance(p, int) else p for p in path)


def _render(path):
    out = ""
    for p in path:
        out += f"[{p}]" if isinstance(p, int) else (f".{p}" if out else p)
    return out


def _nodes(node, path=()):
    yield path, node
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


def mutations(name):
    """Every (op, path, value) one-field mutation of ``VALUES[name]``."""
    data = VALUES[name]().to_dict()
    ranges = OUT_OF_RANGE.get(name, {})
    out = []
    for path, node in _nodes(data):
        for bad in WRONG_TYPE[type(node)] if path else []:
            out.append(("set", path, bad))
        for bad in ranges.get(_pattern(path), []):
            out.append(("set", path, bad))
        if isinstance(node, dict):
            out.append(("add", path + ("bogus",), 1))
            for key in REQUIRED.get(_pattern(path), ()):
                out.append(("drop", path + (key,), None))
    return data, out


def apply(data, op, path, value):
    data = json.loads(json.dumps(data))
    parent = data
    for p in path[:-1]:
        parent = parent[p]
    if op == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return data


MUTATIONS = {name: mutations(name) for name in VALUES}


#: Random values of another JSON type than the valid one (for a float
#: field also the non-finite numbers and integers beyond float range).
OTHER_TYPE = {
    bool: st.one_of(st.integers(), st.floats(), st.text(), st.none()),
    int: st.one_of(st.floats(), st.booleans(), st.text(), st.none()),
    float: st.one_of(st.sampled_from([NAN, INF, -INF]),
                     st.integers(min_value=2 ** 1024), st.booleans(),
                     st.text(), st.none()),
    str: st.one_of(st.integers(), st.floats(), st.booleans(), st.none()),
    list: st.one_of(st.integers(), st.text(),
                    st.dictionaries(st.text(), st.integers(), max_size=2)),
    dict: st.one_of(st.integers(), st.text(),
                    st.lists(st.integers(), max_size=2)),
}


class TestFieldFuzz:
    @pytest.mark.parametrize("name", sorted(VALUES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_wrong_type_is_named(self, name, data):
        valid, _ = MUTATIONS[name]
        path, node = data.draw(st.sampled_from(
            [(p, n) for p, n in _nodes(valid) if p]))
        value = data.draw(OTHER_TYPE[type(node)])
        with pytest.raises(PlanFieldError) as exc:
            CLASSES[name].from_dict(apply(valid, "set", path, value))
        assert exc.value.path == _render(path), (path, value)

    @pytest.mark.parametrize("name", sorted(VALUES))
    def test_every_mutation_is_rejected(self, name):
        valid, candidates = MUTATIONS[name]
        assert CLASSES[name].from_dict(valid) == VALUES[name]()
        for op, path, value in candidates:
            with pytest.raises(PlanFieldError) as exc:
                CLASSES[name].from_dict(apply(valid, op, path, value))
            assert exc.value.path == _render(path), (op, path, value)

    def test_json_literals_for_nan_and_inf_are_rejected(self):
        text = HostTrafficPlan.generate(0).to_json()
        for literal in ("NaN", "Infinity", "-Infinity", "1e400"):
            bad = text.replace('"intensity": 1.0',
                               f'"intensity": {literal}', 1)
            with pytest.raises(PlanFieldError, match="^intensity: "):
                HostTrafficPlan.from_json(bad)

    def test_generate_checks_the_rate_before_drawing(self):
        # A rate above 1 is no probability, and one past numpy's Poisson
        # limit would fail inside the draws: both stop before the first.
        for rate in (1.5, 1e18, -0.5):
            with pytest.raises(PlanFieldError, match="^rate: "):
                FaultPlan.generate(0, rate)
        assert FaultPlan.generate(0, 1.0).rate == 1.0

    def test_json_int_in_float_field_loads_as_float(self):
        plan = FaultPlan.from_dict({"rate": 1, "events": []})
        assert type(plan.rate) is float and plan.rate == 1.0

    def test_constructed_values_meet_the_same_rules(self):
        with pytest.raises(PlanFieldError, match="^burst: "):
            HostStream(HostStreamKind.READ, 0, (1,), 1.0, burst=1.0)
        with pytest.raises(PlanFieldError, match=r"^targets\[1\]: "):
            HostStream(HostStreamKind.READ, 0, (1, -2), 1.0)
        with pytest.raises(PlanFieldError, match="^stop: "):
            HostStream(HostStreamKind.READ, 0, (1,), 1.0, start=3, stop=3)


class TestMachineRanges:
    def test_attach_checks_the_machine(self):
        # The default plan names banks of the 8x8 mesh; a 4x4 machine
        # has 16 banks, so attaching fails before the first epoch.
        session = InterferenceSession(HostTrafficPlan.generate(0))
        with pytest.raises(PlanFieldError, match=r"^streams\[\d+\]\."):
            session.attach(Machine(config_for_mesh(4, 4)))
        assert session.states == []


# -- CLI: every malformed file is exit 2 with the field path -------------------
def _host_plan(**stream0):
    data = HostTrafficPlan.generate(0).to_dict()
    data["streams"][0].update(stream0)
    return data


def _fault_plan(**event):
    return {"events": [dict({"kind": "bank-fail", "target": 3}, **event)]}


def _migration_plan(**migration):
    data = migration_plan().to_dict()
    data["migrations"][0].update(migration)
    return data


CLI_CASES = [
    ("interfere", _host_plan(intensity="nan"), "streams[0].intensity"),
    ("interfere", _host_plan(targets=[1, 500]), "streams[0].targets[1]"),
    ("interfere", _host_plan(tile=9999), "streams[0].tile"),
    ("interfere", dict(HostTrafficPlan.generate(0).to_dict(), seed=1.7),
     "seed"),
    ("chaos-interfere", _host_plan(intensity="nan"), "streams[0].intensity"),
    ("chaos-interfere", _host_plan(targets=[1, 500]),
     "streams[0].targets[1]"),
    ("chaos", _fault_plan(rehome="false"), "events[0].rehome"),
    ("chaos", _fault_plan(param=1.9), "events[0].param"),
    ("chaos", _fault_plan(target=True), "events[0].target"),
    ("chaos", _fault_plan(kind="worker-crash", param=-5), "events[0].param"),
    ("chaos", {"events": [{"kind": "bank-fail"}]}, "events[0].target"),
    ("chaos", {"events": 5}, "events"),
    ("lint-migration", _migration_plan(src_banks="12"),
     "migrations[0].src_banks"),
    ("lint-migration", _migration_plan(applied="false"),
     "migrations[0].applied"),
]


@pytest.mark.parametrize("command, payload, path", CLI_CASES,
                         ids=[f"{c}-{p}" for c, _, p in CLI_CASES])
def test_cli_rejects_bad_field(tmp_path, capsys, command, payload, path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(payload))
    run, argv = {
        "interfere": (interfere_cli, ["vecadd", "--plan", str(plan)]),
        "chaos-interfere": (chaos_cli, ["vecadd", "--interfere", str(plan)]),
        "chaos": (chaos_cli, ["vecadd", "--plan", str(plan)]),
        "lint-migration": (lint.cli, ["--migration-plan", str(plan)]),
    }[command]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{plan}: {path}: " in err, err


@pytest.mark.parametrize("flag", ["--sweep", "--intensity"])
def test_overflowing_intensity_is_usage_error(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        interfere_cli(["vecadd", flag, "1e308"])
    assert exc.value.code == EXIT_USAGE
    assert "intensity finite: " in capsys.readouterr().err

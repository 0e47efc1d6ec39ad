"""Stream dependence graphs and the SEcore offload decision."""

import pytest

from repro.nsc.engine import EngineMode, decide_offload
from repro.nsc.stream import DepKind, StreamDef, StreamGraph, StreamKind


def vecadd_graph(length=100000, reuse=0.0):
    """The Fig 2(a) kernel: sa, sb -> sc."""
    g = StreamGraph()
    g.add(StreamDef("sa", StreamKind.AFFINE_LOAD, length=length, reuse=reuse))
    g.add(StreamDef("sb", StreamKind.AFFINE_LOAD, length=length, reuse=reuse))
    g.add(StreamDef("sc", StreamKind.AFFINE_STORE, length=length,
                    ops_per_elem=1.0))
    g.depend("sa", "sc", DepKind.VALUE)
    g.depend("sb", "sc", DepKind.VALUE)
    return g


class TestGraph:
    def test_topo_order(self):
        g = vecadd_graph()
        order = [s.name for s in g.topo_order()]
        assert order.index("sa") < order.index("sc")
        assert order.index("sb") < order.index("sc")

    def test_duplicate_rejected(self):
        g = StreamGraph()
        g.add(StreamDef("s", StreamKind.AFFINE_LOAD))
        with pytest.raises(ValueError):
            g.add(StreamDef("s", StreamKind.AFFINE_LOAD))

    def test_unknown_dep_rejected(self):
        g = StreamGraph()
        g.add(StreamDef("s", StreamKind.AFFINE_LOAD))
        with pytest.raises(KeyError):
            g.depend("s", "t", DepKind.VALUE)

    def test_self_dep_rejected(self):
        g = StreamGraph()
        g.add(StreamDef("s", StreamKind.POINTER_CHASE))
        with pytest.raises(ValueError):
            g.depend("s", "s", DepKind.ADDRESS)

    def test_cycle_detected(self):
        g = StreamGraph()
        g.add(StreamDef("a", StreamKind.AFFINE_LOAD))
        g.add(StreamDef("b", StreamKind.AFFINE_LOAD))
        g.depend("a", "b", DepKind.VALUE)
        g.depend("b", "a", DepKind.VALUE)
        with pytest.raises(ValueError):
            g.topo_order()

    def test_deps_record_edges(self):
        g = vecadd_graph(length=1000)
        assert sorted((d.src, d.dst) for d in g.deps) == [("sa", "sc"),
                                                          ("sb", "sc")]
        assert all(d.kind is DepKind.VALUE for d in g.deps)
        assert g.stream("sc").length == 1000
        assert [s.name for s in g.streams] == ["sa", "sb", "sc"]


class TestOffloadDecision:
    def test_long_streams_offload(self):
        d = decide_offload(vecadd_graph(), EngineMode.NEAR_L3)
        assert d.offload

    def test_in_core_never_offloads(self):
        d = decide_offload(vecadd_graph(), EngineMode.IN_CORE)
        assert not d.offload

    def test_short_streams_stay_at_core(self):
        d = decide_offload(vecadd_graph(length=10), EngineMode.AFF_ALLOC)
        assert not d.offload
        assert "short" in d.reason

    def test_high_reuse_stays_at_core(self):
        d = decide_offload(vecadd_graph(reuse=10.0), EngineMode.NEAR_L3)
        assert not d.offload
        assert "reuse" in d.reason

    def test_empty_graph(self):
        d = decide_offload(StreamGraph(), EngineMode.NEAR_L3)
        assert not d.offload


class TestEngineMode:
    def test_flags(self):
        assert not EngineMode.IN_CORE.offloads
        assert EngineMode.NEAR_L3.offloads
        assert EngineMode.AFF_ALLOC.offloads
        assert not EngineMode.NEAR_L3.affinity_aware
        assert EngineMode.AFF_ALLOC.affinity_aware

    def test_labels_match_paper(self):
        assert EngineMode.IN_CORE.value == "In-Core"
        assert EngineMode.NEAR_L3.value == "Near-L3"
        assert EngineMode.AFF_ALLOC.value == "Aff-Alloc"

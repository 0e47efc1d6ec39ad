"""Mesh topology and X-Y routing."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.arch import mesh as mesh_mod
from repro.arch.mesh import Mesh
from repro.arch.noc import MessageClass, TrafficAccountant
from repro.config import NocConfig


@pytest.fixture
def mesh():
    return Mesh(8, 8)


class TestCoords:
    def test_row_major_numbering(self, mesh):
        x, y = mesh.coords(np.array([0, 7, 8, 63]))
        assert list(x) == [0, 7, 0, 7]
        assert list(y) == [0, 0, 1, 7]

    def test_tile_at_roundtrip(self, mesh):
        for t in range(64):
            x, y = mesh.coords(t)
            assert mesh.tile_at(int(x), int(y)) == t

    def test_tile_at_out_of_range(self, mesh):
        with pytest.raises(ValueError):
            mesh.tile_at(8, 0)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Mesh(0, 4)


class TestHops:
    def test_self_distance_zero(self, mesh):
        assert mesh.hops(5, 5) == 0

    def test_adjacent(self, mesh):
        assert mesh.hops(0, 1) == 1
        assert mesh.hops(0, 8) == 1

    def test_corner_to_corner(self, mesh):
        assert mesh.hops(0, 63) == 14

    def test_row_wrap_is_far(self, mesh):
        # tile 7 (end of row 0) to tile 8 (start of row 1): not adjacent
        assert mesh.hops(7, 8) == 8

    def test_vectorized(self, mesh):
        src = np.arange(64)
        d = mesh.hops(src, (src + 8) % 64)
        # moving 8 tiles forward is one row down except for the last row
        assert (d[:56] == 1).all()
        assert (d[56:] == 7).all()

    def test_hops_to_all_shape(self, mesh):
        m = mesh.hops_to_all(np.array([0, 63]))
        assert m.shape == (64, 2)
        assert m[0, 0] == 0 and m[63, 1] == 0
        assert m[63, 0] == 14

    def test_hops_to_all_matches_hops(self, mesh):
        targets = np.array([0, 9, 36, 63])
        m = mesh.hops_to_all(targets)
        for i, t in enumerate(targets):
            assert (m[:, i] == mesh.hops(np.arange(64), t)).all()

    @given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
    def test_triangle_inequality(self, a, b, c):
        mesh = Mesh(8, 8)
        assert mesh.hops(a, c) <= mesh.hops(a, b) + mesh.hops(b, c)

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_symmetry(self, a, b):
        mesh = Mesh(8, 8)
        assert mesh.hops(a, b) == mesh.hops(b, a)


class TestRouting:
    def test_route_length_equals_manhattan(self, mesh):
        for s in [0, 5, 27, 63]:
            for d in [0, 9, 33, 56]:
                assert len(mesh.route_links(s, d)) == mesh.hops(s, d)

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_route_length_property(self, s, d):
        mesh = Mesh(8, 8)
        assert len(mesh.route_links(s, d)) == mesh.hops(s, d)

    def test_route_links_distinct(self, mesh):
        links = mesh.route_links(0, 63)
        assert len(set(links)) == len(links)

    def test_xy_order(self, mesh):
        # from (0,0) to (2,1): two X links first, then one Y link
        links = mesh.route_links(0, mesh.tile_at(2, 1))
        assert len(links) == 3
        # X-direction links come from tiles 0 and 1; Y from tile 2
        assert links[0] // 4 == 0 and links[1] // 4 == 1 and links[2] // 4 == 2


class TestLinkLoads:
    def test_single_flow(self, mesh):
        loads = mesh.link_loads(np.array([0]), np.array([3]), np.array([10.0]))
        assert loads.sum() == 30.0  # 3 hops x weight 10
        assert (loads > 0).sum() == 3

    def test_self_traffic_ignored(self, mesh):
        loads = mesh.link_loads(np.array([5]), np.array([5]), np.array([7.0]))
        assert loads.sum() == 0.0

    def test_bisection_links(self, mesh):
        # the one-hop links between columns 3 and 4, in each direction
        east = [mesh.route_links(mesh.tile_at(3, y), mesh.tile_at(4, y))[0]
                for y in range(8)]
        west = [mesh.route_links(mesh.tile_at(4, y), mesh.tile_at(3, y))[0]
                for y in range(8)]
        assert len(set(east) | set(west)) == 16
        # all traffic from left half to right half crosses an east link
        src = np.array([mesh.tile_at(0, y) for y in range(8)])
        dst = np.array([mesh.tile_at(7, y) for y in range(8)])
        loads = mesh.link_loads(src, dst, np.ones(8))
        assert loads[east].sum() == 8.0
        assert loads[west].sum() == 0.0


class TestDegradedRouting:
    """Chaos link failures: routing reroutes, epochs bump, memos re-key."""

    def test_link_removal_changes_routing(self, mesh):
        before = mesh.route_links(9, 10)
        assert len(before) == 1
        mesh.remove_link_between(9, 10)
        after = mesh.route_links(9, 10)
        assert after != before
        assert len(after) == 3  # shortest detour around the dead link
        assert set(after).isdisjoint(mesh.dead_links)
        assert mesh.hops(np.array([9]), np.array([10]))[0] == 3

    def test_epoch_bumps_once_and_removal_is_idempotent(self, mesh):
        assert mesh.topology_epoch == 0
        mesh.remove_link_between(9, 10)
        assert mesh.topology_epoch == 1
        mesh.remove_link_between(9, 10)   # already dead
        mesh.remove_link_between(10, 9)   # same physical link
        assert mesh.topology_epoch == 1
        assert len(mesh.dead_links) == 2  # one directed pair

    def test_incidence_memo_rekeyed_not_poisoned(self):
        a = Mesh(8, 8)
        pristine = a.routing_incidence()
        a.remove_link_between(9, 10)
        degraded = a.routing_incidence()
        assert degraded is not pristine
        # the pristine topology's memo entry survives: a fresh mesh
        # (same geometry, no dead links) must still hit it
        assert Mesh(8, 8).routing_incidence() is pristine
        # and the degraded mesh keeps its own entry on repeat lookups
        assert a.routing_incidence() is degraded

    def test_distance_table_shared_per_dead_link_set(self, monkeypatch):
        monkeypatch.setattr(mesh_mod, "_DISTANCE_CACHE", {})
        calls = []
        bfs = Mesh._bfs_from

        def counted(self, src):
            calls.append(src)
            return bfs(self, src)

        monkeypatch.setattr(Mesh, "_bfs_from", counted)
        a, b = Mesh(8, 8), Mesh(8, 8)
        for m in (a, b):
            m.remove_link_between(9, 10)
            m.remove_link_between(27, 35)
        table = a.hops_table()
        assert len(calls) == 64
        # same dead links: one table, no second BFS sweep
        assert b.hops_table() is table
        assert len(calls) == 64
        assert not table.flags.writeable
        # one more dead link: its own table
        b.remove_link_between(40, 41)
        other = b.hops_table()
        assert len(calls) == 128
        assert other is not table
        assert other[40, 41] == 3 and table[40, 41] == 1
        assert a.hops_table() is table

    def test_one_hop_table_per_topology(self):
        assert Mesh(8, 8).hops_table() is Mesh(8, 8).hops_table()

    def test_degraded_table_is_bfs_and_accountant_follows(self, mesh):
        rng = np.random.default_rng(5)
        src, dst = rng.integers(0, 64, 500), rng.integers(0, 64, 500)
        acct = TrafficAccountant(mesh, NocConfig())
        acct.record(src, dst, 64, MessageClass.DATA)
        pristine = acct.flit_hops()           # caches the pristine hops
        mesh.remove_link_between(9, 10)
        table = mesh.hops_table()
        bfs = np.stack([mesh._bfs_from(s)[0] for s in range(64)])
        np.testing.assert_array_equal(table, bfs)
        assert table[9, 10] == 3
        fresh = TrafficAccountant(mesh, NocConfig())
        fresh.record(src, dst, 64, MessageClass.DATA)
        assert acct.flit_hops() == fresh.flit_hops() > pristine

    def test_link_loads_route_around_dead_link(self, mesh):
        fwd, rev = mesh._directed_pair_links(9, 10)
        mesh.remove_link_between(9, 10)
        loads = mesh.link_loads(np.array([9]), np.array([10]),
                                np.array([2.0]))
        assert loads[fwd] == 0.0 and loads[rev] == 0.0
        assert loads.sum() == 6.0  # 3-hop detour x weight 2

    def test_refuses_disconnecting_removal(self, mesh):
        from repro.analysis.diagnostics import TopologyError
        # tile 0's only links go to tile 1 (east) and tile 8 (south)
        mesh.remove_link_between(0, 1)
        with pytest.raises(TopologyError):
            mesh.remove_link_between(0, 8)
        # the refused removal left the topology untouched
        assert mesh.topology_epoch == 1
        assert mesh.hops(np.array([0]), np.array([8]))[0] == 1

    def test_non_neighbors_raise(self, mesh):
        from repro.analysis.diagnostics import TopologyError
        with pytest.raises(TopologyError):
            mesh.remove_link_between(0, 9)

    def test_degraded_hops_match_route_lengths(self, mesh):
        mesh.remove_link_between(9, 10)
        mesh.remove_link_between(27, 35)
        for src, dst in [(9, 10), (0, 63), (27, 35), (8, 15)]:
            assert len(mesh.route_links(src, dst)) == \
                mesh.hops(np.array([src]), np.array([dst]))[0]

    def test_undirected_interior_links_enumerates_all(self, mesh):
        pairs = mesh.undirected_interior_links()
        # 8x8 mesh: 7 links per row x 8 rows, both orientations
        assert len(pairs) == 2 * 7 * 8
        assert pairs == sorted(pairs)
        assert all(a < b for a, b in pairs)

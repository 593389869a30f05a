"""Tests for the flat route forest, flat STA hot path, and route caching.

The contract under test: the flat :class:`repro.par.forest.RouteForest`
must be a lossless, bit-identical replacement for the per-net dict walks
of PR 4 -- same wirelength, same routed delays, same criticality vectors,
on every routing kernel -- and must round-trip through the on-disk cache
so hits re-hydrate routes instead of re-routing.
"""

import json

import numpy as np
import pytest

from repro.fpga.architecture import FPGAArchitecture, auto_size
from repro.fpga.device import build_device
from repro.fpga.routing_graph import RRNodeType
from repro.netlist.hdl import Design
from repro.par.cache import PaRCache
from repro.par.flow import cached_route, timing_driven_placement
from repro.par.forest import RouteForest, build_route_forest
from repro.par.netlist import PhysicalNetlist
from repro.par.placement import TimingCost, hpwl, place
from repro.par.routing import (
    route,
    routing_from_payload,
    routing_to_payload,
)
from repro.synth.optimize import optimize
from repro.techmap import map_conventional
from repro.timing.delays import estimated_edge_delays, routed_edge_delays
from repro.timing.graph import build_timing_graph
from repro.timing.sta import CriticalityTracker, analyze

KERNELS = ["wavefront", "astar", "fast", "reference"]


def adder_network(width=6):
    d = Design("adder")
    a = d.input_bus("a", width)
    b = d.input_bus("b", width)
    s, co = d.adder(a, b)
    d.output_bus("s", s)
    d.output_bit("cout", co)
    opt, _ = optimize(d.circuit)
    return map_conventional(opt)


@pytest.fixture(scope="module")
def routed_pe():
    """One placed design routed by every kernel (module-scoped: routes once)."""
    net = adder_network(6)
    from repro.par.netlist import from_mapped_network

    nl = from_mapped_network(net)
    arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=8)
    device = build_device(arch)
    placement = place(nl, arch, seed=2, effort=0.4).placement
    results = {}
    for kernel in KERNELS:
        r = route(nl, placement, device, kernel=kernel)
        assert r.success, kernel
        results[kernel] = r
    return nl, arch, device, placement, results


def wire_mask(device):
    t = device.rr_graph.node_type
    return (t == RRNodeType.CHANX) | (t == RRNodeType.CHANY)


class TestForestRoundTrip:
    def test_directed_kernels_emit_forest(self, routed_pe):
        _nl, _arch, _device, _placement, results = routed_pe
        assert results["wavefront"].forest is not None
        assert results["astar"].forest is not None
        # Baselines stay untouched (their benchmark timings must not pay
        # a forest build).
        assert results["fast"].forest is None
        assert results["reference"].forest is None

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_wirelength_matches(self, routed_pe, kernel):
        _nl, _arch, device, _placement, results = routed_pe
        r = results[kernel]
        forest = r.forest or build_route_forest(r.routes, device.rr_graph)
        assert forest.wirelength(wire_mask(device)) == r.wirelength

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_net_routes_round_trip(self, routed_pe, kernel):
        _nl, _arch, device, _placement, results = routed_pe
        r = results[kernel]
        forest = r.forest or build_route_forest(r.routes, device.rr_graph)
        rebuilt = forest.to_net_routes()
        assert set(rebuilt) == set(r.routes)
        for nid, nr in r.routes.items():
            assert set(rebuilt[nid].nodes) == set(nr.nodes)
            assert rebuilt[nid].nodes[0] == nr.nodes[0]  # source first

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_routed_delays_bit_identical(self, routed_pe, kernel):
        """Flat extraction == legacy dict walk, to the last bit."""
        nl, arch, device, placement, results = routed_pe
        r = results[kernel]
        forest = r.forest or build_route_forest(r.routes, device.rr_graph)
        graph = build_timing_graph(nl, arch.lut_delay_ns)
        fb = estimated_edge_delays(graph, placement, arch)[0]
        d_dict, w_dict, p_dict = routed_edge_delays(
            graph, r.routes, placement, device, fallback=fb
        )
        d_flat, w_flat, p_flat = routed_edge_delays(
            graph, r.routes, placement, device, fallback=fb, forest=forest
        )
        assert np.array_equal(d_dict, d_flat)
        assert np.array_equal(w_dict, w_flat)
        assert np.array_equal(p_dict, p_flat)

    def test_analysis_identical_with_and_without_forest(self, routed_pe):
        """analyze() reports the same critical path through either path."""
        nl, _arch, device, placement, results = routed_pe
        r = results["wavefront"]
        a_flat = analyze(nl, r, device, placement=placement)
        stripped = type(r)(
            routes=r.routes, success=r.success, iterations=r.iterations,
            wirelength=r.wirelength, overused_nodes=r.overused_nodes,
            max_channel_occupancy=r.max_channel_occupancy, forest=None,
        )
        a_dict = analyze(nl, stripped, device, placement=placement)
        assert a_flat.critical_path_ns == a_dict.critical_path_ns
        assert np.array_equal(a_flat.edge_delay, a_dict.edge_delay)
        assert np.array_equal(a_flat.edge_criticality, a_dict.edge_criticality)

    def test_payload_round_trip_through_json(self, routed_pe):
        _nl, _arch, device, _placement, results = routed_pe
        r = results["astar"]
        payload = routing_to_payload(r)
        assert payload is not None
        back = routing_from_payload(json.loads(json.dumps(payload)))
        assert back is not None
        assert back.wirelength == r.wirelength
        assert back.success == r.success
        assert back.iterations == r.iterations
        assert back.forest.wirelength(wire_mask(device)) == r.wirelength
        for nid, nr in r.routes.items():
            assert set(back.routes[nid].nodes) == set(nr.nodes)

    def test_corrupt_payload_reads_as_miss(self, routed_pe):
        _nl, _arch, _device, _placement, results = routed_pe
        payload = routing_to_payload(results["wavefront"])
        bad = json.loads(json.dumps(payload))
        bad["forest"]["node"] = bad["forest"]["node"][:3]  # truncated
        assert routing_from_payload(bad) is None
        assert routing_from_payload({"success": True}) is None  # pre-forest entry

    def test_validate_rejects_inconsistent_arrays(self):
        with pytest.raises(ValueError):
            RouteForest.from_payload(
                {
                    "num_rr_nodes": 10,
                    "node": [1, 2],
                    "parent": [-1],  # wrong length
                    "depth": [1, 2],
                    "net_id": [0],
                    "net_source": [0],
                    "net_node_ptr": [0, 2],
                    "net_ptr": [0, 1],
                    "conn_net": [0],
                    "conn_sink": [2],
                    "conn_sink_pos": [1],
                    "conn_ptr": [0, 2],
                }
            )


class TestFlatCriticality:
    def test_tracker_flat_matches_dict(self, routed_pe):
        """conn_crit[conn_index[k]] == legacy dict[k], bit for bit."""
        nl, _arch, device, placement, results = routed_pe
        r = results["wavefront"]
        tracker = CriticalityTracker(nl, placement, device, exponent=2.0)
        flat = tracker.update_flat(r.routes).copy()
        legacy = tracker.update(r.routes)
        assert set(legacy) <= set(tracker.conn_index)
        for key, value in legacy.items():
            assert flat[tracker.conn_index[key]] == value
        # Keys the dict never saw must be zero-criticality connections.
        for key, cid in tracker.conn_index.items():
            if key not in legacy:
                assert flat[cid] == 0.0

    def test_tracker_initial_flat_matches_dict(self, routed_pe):
        nl, _arch, device, placement, _results = routed_pe
        tracker = CriticalityTracker(nl, placement, device)
        flat = tracker.initial_flat().copy()
        legacy = tracker.initial()
        for key, value in legacy.items():
            assert flat[tracker.conn_index[key]] == value

    def test_conn_crit_updates_in_place(self, routed_pe):
        nl, _arch, device, placement, results = routed_pe
        tracker = CriticalityTracker(nl, placement, device)
        first = tracker.initial_flat()
        second = tracker.update_flat(results["wavefront"].routes)
        assert first is second  # same buffer, refreshed in place

    def test_timing_objective_kernels_agree_with_pre_forest_quality(self, routed_pe):
        """Timing routes still converge and beat/match the default delay."""
        nl, _arch, device, placement, results = routed_pe
        base = results["wavefront"]
        a_base = analyze(nl, base, device, placement=placement)
        for kernel in ("wavefront", "astar"):
            timed = route(
                nl, placement, device, kernel=kernel,
                objective="timing", criticality_exponent=2.0,
            )
            assert timed.success
            a_t = analyze(nl, timed, device, placement=placement)
            assert a_t.critical_path_ns <= 1.05 * a_base.critical_path_ns


class TestCacheRehydration:
    def test_cached_route_rehydrates_routes(self, routed_pe, tmp_path):
        nl, _arch, device, placement, results = routed_pe
        cache = PaRCache(tmp_path / "routes")
        first = cached_route(nl, placement, device, cache=cache)
        assert cache.hits == 0 and cache.misses == 1
        second = cached_route(nl, placement, device, cache=cache)
        assert cache.hits == 1
        assert second.wirelength == first.wirelength
        assert second.success == first.success
        assert second.iterations == first.iterations
        for nid, nr in first.routes.items():
            assert set(second.routes[nid].nodes) == set(nr.nodes)
        # The re-hydrated result times identically.
        a1 = analyze(nl, first, device, placement=placement)
        a2 = analyze(nl, second, device, placement=placement)
        assert a1.critical_path_ns == a2.critical_path_ns

    def test_cached_route_corrupt_value_reroutes(self, routed_pe, tmp_path):
        nl, _arch, device, placement, _results = routed_pe
        cache = PaRCache(tmp_path / "routes")
        first = cached_route(nl, placement, device, cache=cache)
        # Clobber every cached value; the next call must fall back to a
        # fresh route, not crash.
        for path in (tmp_path / "routes").glob("*.json"):
            path.write_text(json.dumps({"success": True, "wirelength": 1}))
        again = cached_route(nl, placement, device, cache=cache)
        assert again.wirelength == first.wirelength

    def test_cached_route_scalar_baselines_bypass_cache(self, routed_pe, tmp_path):
        nl, _arch, device, placement, _results = routed_pe
        cache = PaRCache(tmp_path / "routes")
        cached_route(nl, placement, device, cache=cache, kernel="fast")
        assert cache.hits == 0 and cache.misses == 0

    def test_min_cw_values_stay_metrics_only(self, tmp_path):
        """Probe values carry no forest: their keys (probe kernel, probe
        iteration budget) never coincide with a flow's route key, so a
        serialized forest there would be written and read by nobody --
        re-hydration is cached_route's job."""
        from repro.par.metrics import minimum_channel_width

        nl = PhysicalNetlist("chain")
        src = nl.add_block("pi", "io")
        prev = src
        for i in range(6):
            blk = nl.add_block(f"l{i}", "clb")
            nl.add_net(f"n{i}", prev, [blk])
            prev = blk
        out = nl.add_block("po", "io")
        nl.add_net("out", prev, [out])
        nl.validate()
        arch = FPGAArchitecture(width=4, height=4, channel_width=8)
        placement = place(nl, arch, seed=1, effort=0.5).placement
        cache = PaRCache(tmp_path / "routes")
        result = minimum_channel_width(nl, placement, arch, low=1, high=8, cache=cache)
        values = [
            json.loads(path.read_text())
            for path in (tmp_path / "routes").glob("*.json")
        ]
        assert values
        assert all("forest" not in v for v in values)
        assert any(v.get("success") and "timing" in v for v in values)
        assert result.min_channel_width >= 1

    def test_failed_routes_carry_no_forest(self):
        """A congested result's trees are not flattened (probe fast path)."""
        nl = PhysicalNetlist("pair")
        a = nl.add_block("pi", "io")
        blocks = [nl.add_block(f"l{i}", "clb") for i in range(4)]
        for i, b in enumerate(blocks):
            nl.add_net(f"n{i}", a, [b])
            nl.add_net(f"m{i}", b, [blocks[(i + 1) % 4]])
        nl.validate()
        arch = FPGAArchitecture(width=2, height=2, channel_width=1)
        device = build_device(arch)
        placement = place(nl, arch, seed=0, effort=0.3).placement
        try:
            result = route(nl, placement, device, kernel="astar", max_iterations=2)
        except RuntimeError:
            return  # unroutable even with congestion allowed: nothing to assert
        if not result.success:
            assert result.forest is None


class TestIncrementalPlacer:
    def test_places_all_blocks_and_reports_plain_hpwl(self):
        net = adder_network(5)
        from repro.par.netlist import from_mapped_network

        nl = from_mapped_network(net)
        arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=8)
        result = timing_driven_placement(nl, arch, seed=0, effort=0.3)
        assert set(result.placement.block_site) == {b.id for b in nl.blocks}
        assert result.cost == hpwl(nl, result.placement)
        assert result.objective_cost is not None

    def test_is_seed_reproducible(self):
        net = adder_network(4)
        from repro.par.netlist import from_mapped_network

        nl = from_mapped_network(net)
        arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=8)
        a = timing_driven_placement(nl, arch, seed=3, effort=0.3)
        b = timing_driven_placement(nl, arch, seed=3, effort=0.3)
        assert a.cost == b.cost
        assert all(
            a.placement.block_site[k].as_tuple() == s.as_tuple()
            for k, s in b.placement.block_site.items()
        )

    def test_unknown_mode_rejected(self):
        net = adder_network(4)
        from repro.par.netlist import from_mapped_network

        nl = from_mapped_network(net)
        arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=8)
        with pytest.raises(ValueError, match="mode"):
            timing_driven_placement(nl, arch, mode="nope")

    def test_timing_cost_requires_batched_kernel(self):
        net = adder_network(4)
        from repro.par.netlist import from_mapped_network

        nl = from_mapped_network(net)
        arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=8)
        tc = TimingCost([0], [1], lambda x, y: [0.5])
        with pytest.raises(ValueError, match="batched"):
            place(nl, arch, kernel="reference", timing=tc)
        with pytest.raises(ValueError, match="exclusive"):
            place(
                nl, arch, kernel="batched", timing=tc,
                net_weights=[1.0] * len(nl.nets),
            )

    def test_timing_cost_validates_conn_arrays(self):
        with pytest.raises(ValueError, match="equal length"):
            TimingCost([0, 1], [1], lambda x, y: [])

    def test_beats_or_matches_candidates_on_estimated_cp(self):
        """The headline claim at unit-test scale: the incremental placer's
        estimated critical path is no worse than the candidate recipe's."""
        from repro.par.netlist import from_mapped_network
        from repro.timing.sta import net_criticality_from_placement

        net = adder_network(6)
        nl = from_mapped_network(net)
        arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=8)
        graph = build_timing_graph(nl, arch.lut_delay_ns)

        def est(result):
            return net_criticality_from_placement(
                graph, result.placement, arch, exponent=2.0
            )[0]

        inc = timing_driven_placement(nl, arch, seed=1, effort=0.4)
        cand = timing_driven_placement(nl, arch, seed=1, effort=0.4, mode="candidates")
        assert est(inc) <= est(cand) * 1.001

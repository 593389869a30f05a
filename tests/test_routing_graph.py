"""The array-built RR graph and router search view against loop-built oracles.

:func:`repro.fpga.routing_graph.build_rr_graph` computes node ids in closed
form and builds the CSR with one stable sort.  The oracle here is the
straightforward builder it replaced: one ``add_node`` / ``add_edge`` call per
node and switch, adjacency as per-node lists.  The router's tie-breaks depend
on the order of fanouts within a CSR row and of input pins within an entry
map, so the comparisons are exact -- values, dtypes and order.
"""

from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fpga.architecture import FPGAArchitecture
from repro.fpga.device import build_device
from repro.fpga.routing_graph import (
    RRGraph,
    RRNodeType,
    RouterSearchView,
    _track_subset,
    build_rr_graph,
)
from repro.native.astar import astar_kernel
from repro.netlist.hdl import Design
from repro.par.netlist import from_mapped_network
from repro.par.placement import place
from repro.par.routing import route
from repro.synth.optimize import optimize
from repro.techmap import map_conventional


class _LoopBuilder:
    """Incremental RR-graph builder: the oracle's node and edge log."""

    def __init__(self, arch: FPGAArchitecture) -> None:
        self.arch = arch
        self.types: List[int] = []
        self.xs: List[int] = []
        self.ys: List[int] = []
        self.tracks: List[int] = []
        self.caps: List[int] = []
        self.adj: List[List[int]] = []

    def add_node(self, ntype: int, x: int, y: int, track: int = -1, capacity: int = 1) -> int:
        self.types.append(ntype)
        self.xs.append(x)
        self.ys.append(y)
        self.tracks.append(track)
        self.caps.append(capacity)
        self.adj.append([])
        return len(self.types) - 1

    def add_edge(self, src: int, dst: int) -> None:
        self.adj[src].append(dst)

    def add_bidir(self, a: int, b: int) -> None:
        self.adj[a].append(b)
        self.adj[b].append(a)

    def finish(self, lookups) -> RRGraph:
        ptr = np.zeros(len(self.adj) + 1, dtype=np.int64)
        for i, lst in enumerate(self.adj):
            ptr[i + 1] = ptr[i] + len(lst)
        dst = np.empty(int(ptr[-1]), dtype=np.int32)
        for i, lst in enumerate(self.adj):
            dst[ptr[i] : ptr[i + 1]] = lst
        return RRGraph(
            arch=self.arch,
            node_type=np.array(self.types, dtype=np.int8),
            node_x=np.array(self.xs, dtype=np.int16),
            node_y=np.array(self.ys, dtype=np.int16),
            node_track=np.array(self.tracks, dtype=np.int16),
            node_capacity=np.array(self.caps, dtype=np.int16),
            edge_ptr=ptr,
            edge_dst=dst,
            **lookups,
        )


def loop_build_rr_graph(arch: FPGAArchitecture) -> RRGraph:
    """Build the RR graph one node and one switch at a time."""
    b = _LoopBuilder(arch)
    W = arch.channel_width
    width, height = arch.width, arch.height

    # CHANX(x, y, t): horizontal wire at channel y (0..height), column x (1..width)
    chanx: Dict[Tuple[int, int, int], int] = {}
    for y in range(0, height + 1):
        for x in range(1, width + 1):
            for t in range(W):
                chanx[(x, y, t)] = b.add_node(RRNodeType.CHANX, x, y, t)
    # CHANY(x, y, t): vertical wire at channel x (0..width), row y (1..height)
    chany: Dict[Tuple[int, int, int], int] = {}
    for x in range(0, width + 1):
        for y in range(1, height + 1):
            for t in range(W):
                chany[(x, y, t)] = b.add_node(RRNodeType.CHANY, x, y, t)

    # switch blocks (disjoint / subset topology)
    for i in range(0, width + 1):
        for j in range(0, height + 1):
            for t in range(W):
                incident = []
                if i >= 1:
                    incident.append(chanx[(i, j, t)])
                if i + 1 <= width:
                    incident.append(chanx[(i + 1, j, t)])
                if j >= 1:
                    incident.append(chany[(i, j, t)])
                if j + 1 <= height:
                    incident.append(chany[(i, j + 1, t)])
                for a_idx in range(len(incident)):
                    for b_idx in range(a_idx + 1, len(incident)):
                        b.add_bidir(incident[a_idx], incident[b_idx])

    # logic blocks
    clb_source: Dict[Tuple[int, int], int] = {}
    clb_sink: Dict[Tuple[int, int], int] = {}
    clb_opin: Dict[Tuple[int, int], int] = {}
    out_tracks = _track_subset(W, arch.fc_out)
    in_tracks = _track_subset(W, arch.fc_in)

    def adjacent_tracks(x: int, y: int, tracks: List[int]) -> List[int]:
        nodes = []
        for t in tracks:
            nodes.append(chanx[(x, y, t)])
            nodes.append(chanx[(x, y - 1, t)])
            nodes.append(chany[(x, y, t)])
            nodes.append(chany[(x - 1, y, t)])
        return nodes

    for x in range(1, width + 1):
        for y in range(1, height + 1):
            src = b.add_node(RRNodeType.SOURCE, x, y)
            opin = b.add_node(RRNodeType.OPIN, x, y)
            sink = b.add_node(RRNodeType.SINK, x, y, capacity=arch.lut_inputs)
            b.add_edge(src, opin)
            clb_source[(x, y)] = src
            clb_opin[(x, y)] = opin
            clb_sink[(x, y)] = sink
            for wire in adjacent_tracks(x, y, out_tracks):
                b.add_edge(opin, wire)
            for _ in range(arch.lut_inputs):
                ipin = b.add_node(RRNodeType.IPIN, x, y)
                b.add_edge(ipin, sink)
                for wire in adjacent_tracks(x, y, in_tracks):
                    b.add_edge(wire, ipin)

    # IO pads
    io_source: Dict[Tuple[int, int, int], int] = {}
    io_sink: Dict[Tuple[int, int, int], int] = {}

    def io_channel_nodes(x: int, y: int) -> List[int]:
        nodes = []
        for t in range(W):
            if y == 0:
                nodes.append(chanx[(x, 0, t)])
            elif y == height + 1:
                nodes.append(chanx[(x, height, t)])
            elif x == 0:
                nodes.append(chany[(0, y, t)])
            else:  # x == width + 1
                nodes.append(chany[(width, y, t)])
        return nodes

    for site in arch.io_sites():
        x, y, sub = site.x, site.y, site.subtile
        src = b.add_node(RRNodeType.SOURCE, x, y, track=sub)
        opin = b.add_node(RRNodeType.OPIN, x, y, track=sub)
        ipin = b.add_node(RRNodeType.IPIN, x, y, track=sub)
        sink = b.add_node(RRNodeType.SINK, x, y, track=sub)
        b.add_edge(src, opin)
        b.add_edge(ipin, sink)
        for wire in io_channel_nodes(x, y):
            b.add_edge(opin, wire)
            b.add_edge(wire, ipin)
        io_source[(x, y, sub)] = src
        io_sink[(x, y, sub)] = sink

    return b.finish(
        dict(
            clb_source=clb_source,
            clb_sink=clb_sink,
            clb_opin=clb_opin,
            io_source=io_source,
            io_sink=io_sink,
        )
    )


def oracle_entries(rr: RRGraph) -> Dict[int, Dict[int, List[int]]]:
    """Two-hop ``wire -> [ipins]`` map of every sink, from per-node predecessor lists."""
    preds: List[List[int]] = [[] for _ in range(rr.num_nodes)]
    for n in range(rr.num_nodes):
        for d in rr.fanouts(n).tolist():
            preds[d].append(n)
    entries: Dict[int, Dict[int, List[int]]] = {}
    for sink in np.flatnonzero(rr.node_type == RRNodeType.SINK).tolist():
        entry: Dict[int, List[int]] = {}
        for ipin in preds[sink]:
            for wire in preds[ipin]:
                entry.setdefault(wire, []).append(ipin)
        entries[sink] = entry
    return entries


GRAPH_ARRAYS = (
    "node_type", "node_x", "node_y", "node_track", "node_capacity", "edge_ptr", "edge_dst",
)
GRAPH_DICTS = ("clb_source", "clb_sink", "clb_opin", "io_source", "io_sink")


def assert_same_graph(got: RRGraph, want: RRGraph) -> None:
    for name in GRAPH_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    for name in GRAPH_DICTS:
        # same keys, values and insertion order
        assert list(getattr(got, name).items()) == list(getattr(want, name).items()), name


SMALL_ARCHS = [
    FPGAArchitecture(width=3, height=3, channel_width=4),
    FPGAArchitecture(width=4, height=2, channel_width=5, lut_inputs=6, io_capacity=3,
                     fc_in=0.5, fc_out=0.3),
    FPGAArchitecture(width=1, height=3, channel_width=1, lut_inputs=3, io_capacity=1),
]


class TestVectorizedBuilder:
    @given(
        width=st.integers(1, 5),
        height=st.integers(1, 5),
        channel_width=st.integers(1, 7),
        lut_inputs=st.sampled_from([3, 4, 6]),
        io_capacity=st.sampled_from([1, 2, 3]),
        fc_in=st.sampled_from([0.1, 0.25, 0.5, 0.7, 1.0]),
        fc_out=st.sampled_from([0.1, 0.25, 0.5, 0.7, 1.0]),
    )
    @example(width=5, height=2, channel_width=6, lut_inputs=6, io_capacity=3,
             fc_in=0.5, fc_out=0.25)
    @example(width=2, height=4, channel_width=1, lut_inputs=3, io_capacity=1,
             fc_in=1.0, fc_out=1.0)
    @example(width=3, height=3, channel_width=7, lut_inputs=4, io_capacity=2,
             fc_in=0.7, fc_out=0.1)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_matches_loop_builder(
        self, width, height, channel_width, lut_inputs, io_capacity, fc_in, fc_out
    ):
        arch = FPGAArchitecture(
            width=width, height=height, channel_width=channel_width,
            lut_inputs=lut_inputs, io_capacity=io_capacity, fc_in=fc_in, fc_out=fc_out,
        )
        assert_same_graph(build_rr_graph(arch), loop_build_rr_graph(arch))

    def test_matches_loop_builder_at_flow_scale(self):
        arch = FPGAArchitecture(width=9, height=9, channel_width=16)
        assert_same_graph(build_rr_graph(arch), loop_build_rr_graph(arch))


class TestSearchView:
    @pytest.mark.parametrize("arch", SMALL_ARCHS, ids=lambda a: a.describe())
    def test_entry_maps_match_two_hop_oracle(self, arch):
        rr = build_rr_graph(arch)
        view = RouterSearchView(rr)
        expected = oracle_entries(rr)
        for sink, entry in expected.items():
            wires, ptr, ipins = view.entry_csr(sink)
            assert wires.dtype == ptr.dtype == ipins.dtype == np.int64
            assert wires.tolist() == sorted(entry)
            assert ptr.tolist() == [0] + np.cumsum(
                [len(entry[w]) for w in sorted(entry)], dtype=np.int64
            ).tolist()
            assert ipins.tolist() == [p for w in sorted(entry) for p in entry[w]]
            assert view.entries_of(sink) == entry

    @pytest.mark.parametrize("arch", SMALL_ARCHS, ids=lambda a: a.describe())
    def test_adj_search_is_the_pin_filtered_fanout(self, arch):
        rr = build_rr_graph(arch)
        view = RouterSearchView(rr)
        pins = (RRNodeType.IPIN, RRNodeType.SINK)
        for n in range(rr.num_nodes):
            sliced = view.csr_dst[view.csr_ptr[n] : view.csr_ptr[n + 1]].tolist()
            filtered = [d for d in rr.fanouts(n).tolist() if rr.node_type[d] not in pins]
            assert view.adj_search[n] == sliced == filtered

    @pytest.mark.parametrize("native", ["1", "0"])
    def test_adj_search_built_only_for_the_python_twin(self, monkeypatch, native):
        monkeypatch.setenv("REPRO_NATIVE", native)
        if native == "1" and astar_kernel() is None:
            pytest.skip("native astar kernel unavailable")
        d = Design("adder")
        a, b = d.input_bus("a", 3), d.input_bus("b", 3)
        s, co = d.adder(a, b)
        d.output_bus("s", s)
        d.output_bit("cout", co)
        nl = from_mapped_network(map_conventional(optimize(d.circuit)[0]))
        arch = FPGAArchitecture(width=3, height=3, channel_width=8)
        device = build_device(arch)
        placement = place(nl, arch, seed=0, effort=0.3).placement
        assert route(nl, placement, device, max_iterations=10).success
        view = device.rr_graph.search_view()
        assert ("adj_search" in view.__dict__) == (native == "0")

"""Routing-resource graph of the island-style FPGA.

The routing-resource (RR) graph is the data structure the PathFinder router
(TROUTE in the paper's tool names) works on: a directed graph whose nodes are
sources, sinks, block pins and unit-length channel wires, and whose edges are
the programmable switches of the FPGA.

The construction mirrors VPR's graph for the 4-LUT "sanitized" architecture:

* every logic block exposes one SOURCE -> OPIN and ``lut_inputs`` IPIN -> SINK
  paths,
* connection blocks connect pins to the adjacent channel tracks
  (``fc_in`` / ``fc_out`` fractions of the channel),
* disjoint (subset) switch blocks connect wires of the same track index where
  a horizontal and a vertical channel meet.

Node attributes are stored in parallel NumPy arrays and adjacency in CSR form
so that the router's inner loop stays cheap.

:func:`build_rr_graph` computes every array by index arithmetic, and
guarantees this numbering and order (the router's tie-breaks depend on it;
``tests/test_routing_graph.py`` checks it against a loop-built oracle):

* **Node ids**, in blocks, with ``W`` = channel width and ``L`` =
  ``lut_inputs``:

  1. CHANX ``(x, y, t)`` for ``y`` in ``0..height``, ``x`` in
     ``1..width``, ``t`` in ``0..W-1`` (outermost first):
     id ``(y * width + x - 1) * W + t``;
  2. CHANY ``(x, y, t)`` for ``x`` in ``0..width``, ``y`` in
     ``1..height``, ``t``: id ``NX + (x * height + y - 1) * W + t``, where
     ``NX`` is the CHANX count;
  3. one ``3 + L`` stride per logic block, blocks in ``x``-major order:
     SOURCE, OPIN, SINK (capacity ``L``), then the ``L`` IPINs;
  4. four nodes per IO site in :meth:`FPGAArchitecture.io_sites` order:
     SOURCE, OPIN, IPIN, SINK, each with ``track`` = the site's subtile.
* **Edge order.**  Row ``n`` of the CSR lists ``n``'s fanouts in the order
  the switches are enumerated: first the switch blocks (per ``(i, j, t)``
  in ``x``-major order, every pair of the incident wires left/right/below/
  above in both directions), then per logic block SOURCE -> OPIN, OPIN ->
  each ``fc_out`` wire, and per IPIN the IPIN -> SINK edge followed by
  each ``fc_in`` wire -> IPIN, then per IO site SOURCE -> OPIN,
  IPIN -> SINK and per track OPIN -> wire, wire -> IPIN.  Per pin the
  wires are enumerated per track as channel above, below, right, left.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .architecture import FPGAArchitecture

__all__ = [
    "RRNodeType",
    "RRGraph",
    "RouterSearchView",
    "build_rr_graph",
    "RR_BASE_COST",
    "rr_delay_ns",
]


class RRNodeType:
    """Node-type codes of the RR graph."""

    SOURCE = 0
    SINK = 1
    OPIN = 2
    IPIN = 3
    CHANX = 4
    CHANY = 5

    NAMES = {0: "SOURCE", 1: "SINK", 2: "OPIN", 3: "IPIN", 4: "CHANX", 5: "CHANY"}


#: Congestion-free cost of occupying one RR node, by node type.  This is the
#: router's cost model, exported here so :class:`RouterSearchView` can bake a
#: flat base-cost vector next to the CSR arrays it already owns.
RR_BASE_COST = {
    RRNodeType.SOURCE: 0.1,
    RRNodeType.SINK: 0.1,
    RRNodeType.OPIN: 0.9,
    RRNodeType.IPIN: 0.9,
    RRNodeType.CHANX: 1.0,
    RRNodeType.CHANY: 1.0,
}


def rr_delay_ns(arch: FPGAArchitecture) -> Dict[int, float]:
    """Intrinsic delay of occupying one RR node, by node type, in ns.

    This is the per-resource delay model of the timing subsystem
    (:mod:`repro.timing`): a channel wire charges one switch (to enter it)
    plus one unit segment, pins charge the connection-block hop, and the
    logical SOURCE/SINK endpoints are free.  The arrival time of a routed
    connection is the sum of these node delays along its route-tree path.
    """
    wire = arch.wire_hop_delay_ns
    pin = arch.pin_delay_ns
    return {
        RRNodeType.SOURCE: 0.0,
        RRNodeType.SINK: 0.0,
        RRNodeType.OPIN: pin,
        RRNodeType.IPIN: pin,
        RRNodeType.CHANX: wire,
        RRNodeType.CHANY: wire,
    }


@dataclass
class RRGraph:
    """Routing-resource graph with CSR adjacency."""

    arch: FPGAArchitecture
    node_type: np.ndarray        # int8 per node
    node_x: np.ndarray           # int16
    node_y: np.ndarray           # int16
    node_track: np.ndarray       # int16 (track index; -1 for pins)
    node_capacity: np.ndarray    # int16
    edge_ptr: np.ndarray         # CSR row pointers (num_nodes + 1)
    edge_dst: np.ndarray         # CSR column indices
    #: lookup tables filled in by the builder
    clb_source: Dict[Tuple[int, int], int]
    clb_sink: Dict[Tuple[int, int], int]
    clb_opin: Dict[Tuple[int, int], int]
    io_source: Dict[Tuple[int, int, int], int]
    io_sink: Dict[Tuple[int, int, int], int]

    @property
    def num_nodes(self) -> int:
        return len(self.node_type)

    @property
    def num_edges(self) -> int:
        return len(self.edge_dst)

    def fanouts(self, node: int) -> np.ndarray:
        """Destination nodes of all switches leaving ``node``."""
        return self.edge_dst[self.edge_ptr[node] : self.edge_ptr[node + 1]]

    def num_wire_nodes(self) -> int:
        return int(
            np.count_nonzero(
                (self.node_type == RRNodeType.CHANX) | (self.node_type == RRNodeType.CHANY)
            )
        )

    def is_wire(self, node: int) -> bool:
        return self.node_type[node] in (RRNodeType.CHANX, RRNodeType.CHANY)

    def describe_node(self, node: int) -> str:  # pragma: no cover - debug helper
        t = RRNodeType.NAMES[int(self.node_type[node])]
        return (
            f"{t}({int(self.node_x[node])},{int(self.node_y[node])},"
            f"t={int(self.node_track[node])})"
        )

    def search_view(self) -> "RouterSearchView":
        """Precomputed flat-array view of the graph for the directed router.

        Built once per graph and cached; repeated :func:`repro.par.routing.route`
        calls on the same device (PathFinder iterations, benchmark reruns) share
        it.
        """
        view = self.__dict__.get("_search_view")
        if view is None:
            view = RouterSearchView(self)
            self.__dict__["_search_view"] = view
        return view


def _type_table(values: Dict[int, float]) -> np.ndarray:
    """Per-type lookup vector: ``table[node_type]`` gives a per-node array."""
    table = np.zeros(len(RRNodeType.NAMES), dtype=np.float64)
    for t, v in values.items():
        table[t] = v
    return table


class RouterSearchView:
    """Flat mirrors of an :class:`RRGraph` for the directed ``astar`` router.

    The router expands exclusively over SOURCE/OPIN/CHANX/CHANY nodes: IPIN
    and SINK successors are stripped from the adjacency here, and each sink
    instead exposes an *entry map* ``wire -> [ipins]`` derived from the
    reverse edges, so the search completes on the first wire adjacent to the
    target block instead of flooding every input pin it passes.  The node
    coordinates double as the admissible geometric lookahead: every
    remaining unit of Manhattan distance to the target costs at least one
    unit-length wire of base cost 1.0.

    Everything is built by array passes over the graph's CSR:

    * ``csr_ptr`` / ``csr_dst`` -- the filtered adjacency, read by the
      native expansion loop, alongside ``xs_arr`` / ``ys_arr``
      (Manhattan-lookahead tables), ``base_cost`` (congestion-free node
      costs, :data:`RR_BASE_COST`) and ``delay_ns`` (per-node intrinsic
      delays, :func:`rr_delay_ns` -- the flat delay model consumed by the
      STA engine and the timing-driven router objective);
    * the entry maps of *all* sinks at once, one lexsort of the two-hop
      reverse edges ``wire -> ipin -> sink`` by ``(sink, wire, ipin rank)``
      (:meth:`entry_csr` slices it, :meth:`entries_of` is a dict view of
      the same slice);
    * ``adj_search`` -- per-node Python lists sliced out of the same CSR,
      the layout of the Python twin of the expansion loop, built on first
      access only (the native kernel never reads it).
    """

    def __init__(self, rr: RRGraph) -> None:
        self.rr = rr
        self.xs: List[int] = rr.node_x.tolist()
        self.ys: List[int] = rr.node_y.tolist()
        self.types: List[int] = rr.node_type.tolist()
        self.capacity: List[int] = rr.node_capacity.tolist()

        # Filtered adjacency (no IPIN/SINK targets) as contiguous NumPy CSR.
        num_nodes = rr.num_nodes
        ntype = rr.node_type
        edge_src = np.repeat(np.arange(num_nodes, dtype=np.int32), np.diff(rr.edge_ptr))
        dst_type = ntype[rr.edge_dst]
        keep = (dst_type != RRNodeType.IPIN) & (dst_type != RRNodeType.SINK)
        self.csr_dst: np.ndarray = rr.edge_dst[keep].astype(np.int32)
        self.csr_ptr: np.ndarray = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(edge_src[keep], minlength=num_nodes), out=self.csr_ptr[1:])

        # Vector mirrors of the per-node attributes: lookahead tables, the
        # congestion-free cost floor and the intrinsic delays.
        self.xs_arr: np.ndarray = rr.node_x.astype(np.int64)
        self.ys_arr: np.ndarray = rr.node_y.astype(np.int64)
        self.base_cost: np.ndarray = _type_table(RR_BASE_COST)[ntype]
        self.delay_ns: np.ndarray = _type_table(rr_delay_ns(rr.arch))[ntype]

        # Entry maps of every sink, from the two-hop reverse edges
        # wire -> pin -> sink.  hop1 lists the pin -> sink edges by edge
        # index: sorted by pin, and within one sink in the order of its
        # in-edges, so an index into hop1 is a pin's rank.  hop2 lists the
        # wire -> pin edges into those pins; each joins the run
        # hop1[pin_first[pin] : pin_first[pin] + pin_count[pin]].
        hop1 = np.flatnonzero(dst_type == RRNodeType.SINK)
        pin1 = edge_src[hop1]
        pin_count = np.bincount(pin1, minlength=num_nodes)
        pin_first = np.cumsum(pin_count) - pin_count
        hop2 = np.flatnonzero(pin_count[rr.edge_dst])
        pin2 = rr.edge_dst[hop2]
        count = pin_count[pin2]
        starts = np.cumsum(count) - count
        rank = np.repeat(pin_first[pin2] - starts, count) + np.arange(int(count.sum()))
        sink = rr.edge_dst[hop1][rank]
        wire = edge_src[np.repeat(hop2, count)]
        # Sort by (sink, wire, rank); sink and wire share one int64 key.
        order = np.lexsort((rank, sink.astype(np.int64) * num_nodes + wire))
        sink, wire = sink[order], wire[order]
        self._entry_ipin: np.ndarray = pin1[rank[order]].astype(np.int64)
        # One group per (sink, wire) pair; per sink, a run of groups.
        first = np.flatnonzero(
            np.concatenate(([len(sink) > 0], (sink[1:] != sink[:-1]) | (wire[1:] != wire[:-1])))
        )
        self._group_wire: np.ndarray = wire[first].astype(np.int64)
        self._group_ptr: np.ndarray = np.append(first, len(sink)).astype(np.int64)
        self._sink_ptr: np.ndarray = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(sink[first], minlength=num_nodes), out=self._sink_ptr[1:])
        self._entries: Dict[int, Dict[int, List[int]]] = {}
        self._entry_csr: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @functools.cached_property
    def adj_search(self) -> List[List[int]]:
        """Filtered adjacency as per-node Python lists (the Python twin's layout)."""
        ptr = self.csr_ptr.tolist()
        dst = self.csr_dst.tolist()
        return [dst[ptr[i]: ptr[i + 1]] for i in range(self.rr.num_nodes)]

    def entry_csr(self, sink: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entry map of ``sink`` as a wire-sorted CSR for the native kernel.

        ``(wires, ptr, ipins)``: ``wires`` is the sorted unique wire set, and
        ``ipins[ptr[i]:ptr[i + 1]]`` lists that wire's feasible entry pins in
        the order of the sink's in-edges (the first-minimum tie-break of the
        completion scan depends on that order).  Sorted wires let the C
        kernel binary-search during expansion instead of hashing.
        """
        csr = self._entry_csr.get(sink)
        if csr is None:
            g0, g1 = int(self._sink_ptr[sink]), int(self._sink_ptr[sink + 1])
            ptr = self._group_ptr[g0 : g1 + 1]
            lo = int(ptr[0])
            csr = (self._group_wire[g0:g1], ptr - lo, self._entry_ipin[lo : int(ptr[-1])])
            self._entry_csr[sink] = csr
        return csr

    def entries_of(self, sink: int) -> Dict[int, List[int]]:
        """Map ``wire -> [ipins]`` of every wire that can enter ``sink``."""
        entry = self._entries.get(sink)
        if entry is None:
            wires, ptr, ipins = self.entry_csr(sink)
            p = ptr.tolist()
            ips = ipins.tolist()
            entry = {w: ips[p[i] : p[i + 1]] for i, w in enumerate(wires.tolist())}
            self._entries[sink] = entry
        return entry


def _track_subset(channel_width: int, fraction: float) -> List[int]:
    """Evenly spaced subset of track indices reachable by a pin."""
    count = max(1, int(round(channel_width * fraction)))
    if count >= channel_width:
        return list(range(channel_width))
    step = channel_width / count
    return sorted({int(i * step) % channel_width for i in range(count)})


def _grid(*axes: np.ndarray) -> List[np.ndarray]:
    """Flattened ``ij`` mesh of ``axes``: the first axis varies slowest."""
    return [a.ravel() for a in np.meshgrid(*axes, indexing="ij")]


def build_rr_graph(arch: FPGAArchitecture) -> RRGraph:
    """Build the routing-resource graph for an architecture.

    Node ids and per-row edge order follow the invariants in the module
    docstring.  Each node block and edge family is one set of index
    arrays; the CSR is one stable sort of all edges on their source.
    """
    W = arch.channel_width
    width, height = arch.width, arch.height
    L = arch.lut_inputs
    tracks = np.arange(W)

    # ---- node ids in closed form -------------------------------------------------
    num_chanx = (height + 1) * width * W
    num_chany = (width + 1) * height * W
    clb_stride = 3 + L
    clb_base = num_chanx + num_chany
    num_clb = width * height
    io_base = clb_base + num_clb * clb_stride

    def chanx(x, y, t):
        """CHANX(x, y, t): horizontal wire at channel y (0..height), column x (1..width)."""
        return (y * width + x - 1) * W + t

    def chany(x, y, t):
        """CHANY(x, y, t): vertical wire at channel x (0..width), row y (1..height)."""
        return num_chanx + (x * height + y - 1) * W + t

    io_xs, io_ys, io_subs = np.array(
        [(s.x, s.y, s.subtile) for s in arch.io_sites()], dtype=np.int64
    ).reshape(-1, 3).T
    num_io = len(io_xs)
    num_nodes = io_base + 4 * num_io

    # ---- node attributes ---------------------------------------------------------
    xy, xx, xt = _grid(np.arange(height + 1), np.arange(1, width + 1), tracks)
    yx, yy, yt = _grid(np.arange(width + 1), np.arange(1, height + 1), tracks)
    clb_x, clb_y = _grid(np.arange(1, width + 1), np.arange(1, height + 1))
    clb_kinds = [RRNodeType.SOURCE, RRNodeType.OPIN, RRNodeType.SINK] + [RRNodeType.IPIN] * L
    clb_caps = [1, 1, L] + [1] * L
    io_kinds = [RRNodeType.SOURCE, RRNodeType.OPIN, RRNodeType.IPIN, RRNodeType.SINK]

    node_type = np.concatenate((
        np.full(num_chanx, RRNodeType.CHANX),
        np.full(num_chany, RRNodeType.CHANY),
        np.tile(clb_kinds, num_clb),
        np.tile(io_kinds, num_io),
    )).astype(np.int8)
    node_x = np.concatenate((xx, yx, np.repeat(clb_x, clb_stride), np.repeat(io_xs, 4)))
    node_y = np.concatenate((xy, yy, np.repeat(clb_y, clb_stride), np.repeat(io_ys, 4)))
    node_track = np.concatenate((
        xt, yt, np.full(num_clb * clb_stride, -1), np.repeat(io_subs, 4)
    ))
    node_capacity = np.concatenate((
        np.ones(num_chanx + num_chany, dtype=np.int64),
        np.tile(clb_caps, num_clb),
        np.ones(4 * num_io, dtype=np.int64),
    ))

    # ---- switch blocks (disjoint / subset topology) --------------------------------
    # Per (i, j, t): the incident wires left, right, below, above (where they
    # exist) and every pair (a, b), a before b, as a -> b then b -> a.
    si, sj, st = _grid(np.arange(width + 1), np.arange(height + 1), tracks)
    incident = np.stack(
        (chanx(si, sj, st), chanx(si + 1, sj, st), chany(si, sj, st), chany(si, sj + 1, st)),
        axis=1,
    )
    present = np.stack((si >= 1, si + 1 <= width, sj >= 1, sj + 1 <= height), axis=1)
    first_of_pair, second_of_pair = np.triu_indices(4, k=1)
    a, b = incident[:, first_of_pair], incident[:, second_of_pair]
    pair = np.repeat(
        (present[:, first_of_pair] & present[:, second_of_pair])[:, :, None], 2, axis=2
    )
    sb_src = np.stack((a, b), axis=2)[pair]
    sb_dst = np.stack((b, a), axis=2)[pair]

    # ---- logic blocks -------------------------------------------------------------
    clb_src = clb_base + np.arange(num_clb) * clb_stride
    opin, sink = clb_src + 1, clb_src + 2
    ipin = clb_src[:, None] + 3 + np.arange(L)  # (block, pin)

    def adjacent_tracks(track_list: List[int]) -> np.ndarray:
        """Per block, the wires of the listed tracks: above, below, right, left."""
        t = np.asarray(track_list)[None, :]
        x, y = clb_x[:, None], clb_y[:, None]
        wires = (chanx(x, y, t), chanx(x, y - 1, t), chany(x, y, t), chany(x - 1, y, t))
        return np.stack(wires, axis=2).reshape(num_clb, -1)

    out_wires = adjacent_tracks(_track_subset(W, arch.fc_out))
    in_wires = adjacent_tracks(_track_subset(W, arch.fc_in))
    fan_in = in_wires.shape[1]
    # Per pin: ipin -> sink, then every input wire -> ipin.
    pin_src = np.concatenate(
        (ipin[:, :, None], np.broadcast_to(in_wires[:, None, :], (num_clb, L, fan_in))), axis=2
    )
    pin_dst = np.concatenate(
        (np.broadcast_to(sink[:, None, None], (num_clb, L, 1)),
         np.broadcast_to(ipin[:, :, None], (num_clb, L, fan_in))),
        axis=2,
    )
    blk_src = np.concatenate((
        clb_src[:, None],
        np.broadcast_to(opin[:, None], out_wires.shape),
        pin_src.reshape(num_clb, -1),
    ), axis=1).ravel()
    blk_dst = np.concatenate(
        (opin[:, None], out_wires, pin_dst.reshape(num_clb, -1)), axis=1
    ).ravel()

    # ---- IO pads ------------------------------------------------------------------
    io_src = io_base + 4 * np.arange(num_io)
    io_opin, io_ipin, io_sink = io_src + 1, io_src + 2, io_src + 3
    x, y, t = io_xs[:, None], io_ys[:, None], tracks[None, :]
    # The single channel adjacent to the perimeter location, all tracks.
    channel = np.where(
        y == 0, chanx(x, 0, t),
        np.where(y == height + 1, chanx(x, height, t),
                 np.where(x == 0, chany(0, y, t), chany(width, y, t))),
    )
    # Per site: src -> opin, ipin -> sink, then per track opin -> wire, wire -> ipin.
    pad_src = np.concatenate((
        io_src[:, None], io_ipin[:, None],
        np.stack((np.broadcast_to(io_opin[:, None], channel.shape), channel), axis=2)
        .reshape(num_io, -1),
    ), axis=1).ravel()
    pad_dst = np.concatenate((
        io_opin[:, None], io_sink[:, None],
        np.stack((channel, np.broadcast_to(io_ipin[:, None], channel.shape)), axis=2)
        .reshape(num_io, -1),
    ), axis=1).ravel()

    # ---- CSR: one stable sort keeps each row in enumeration order ------------------
    src = np.concatenate((sb_src, blk_src, pad_src))
    dst = np.concatenate((sb_dst, blk_dst, pad_dst))
    order = np.argsort(src, kind="stable")
    edge_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=edge_ptr[1:])

    clb_keys = list(zip(clb_x.tolist(), clb_y.tolist()))
    io_keys = list(zip(io_xs.tolist(), io_ys.tolist(), io_subs.tolist()))
    return RRGraph(
        arch=arch,
        node_type=node_type,
        node_x=node_x.astype(np.int16),
        node_y=node_y.astype(np.int16),
        node_track=node_track.astype(np.int16),
        node_capacity=node_capacity.astype(np.int16),
        edge_ptr=edge_ptr,
        edge_dst=dst[order].astype(np.int32),
        clb_source=dict(zip(clb_keys, clb_src.tolist())),
        clb_sink=dict(zip(clb_keys, sink.tolist())),
        clb_opin=dict(zip(clb_keys, opin.tolist())),
        io_source=dict(zip(io_keys, io_src.tolist())),
        io_sink=dict(zip(io_keys, io_sink.tolist())),
    )

"""TPLACE: simulated-annealing placement.

Re-implementation of the VPR/TPaR placement step: blocks of the physical
netlist are assigned to compatible sites of the island FPGA and iteratively
improved by simulated annealing on the half-perimeter wirelength (HPWL) of
all nets, with the adaptive temperature schedule and range limiting of VPR.

Two annealing kernels live behind :func:`place`:

* ``kernel="batched"`` (default) -- the production kernel.  VPR-style
  incremental net bounding boxes: every net caches its bbox plus the number
  of pins on each boundary, a move updates affected nets in O(1) and only a
  *boundary shrink* (the last pin leaves a bbox edge) triggers a rescan of
  that net's pins.  All randomness is drawn in blocks from a
  ``numpy.random.Generator(PCG64)``.  This kernel also accepts per-net
  weights (``net_weights``) and the per-connection timing term
  (``timing``), the seams the timing-driven flow uses.  When the native
  backend is available (see :mod:`repro.native`) the move loop runs as
  compiled C over the same flat arrays and PCG64 stream; the pure-Python
  loop is its twin for ``REPRO_NATIVE=0``.  Trajectories are bit-identical
  between the two, so results and caches are backend-independent.
* ``kernel="reference"`` -- the slow, obviously-correct oracle: it
  recomputes every affected net's HPWL from its full pin list and draws
  from ``random.Random``.  Its trajectory differs from ``batched``, so the
  production kernel's quality is banded against it instead of bit-checked:
  mean final HPWL across seeds is asserted within 2% of ``reference`` (see
  ``tests/test_par.py`` and ``benchmarks/bench_hotpaths.py``).

Both kernels keep the HPWL cost as an exact integer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..fpga.architecture import FPGAArchitecture, Site
from ..native.annealer import ISTATE, ISTATE_LEN, annealer_kernel, istate_counters
from ..obs import metrics as obs_metrics
from ..obs.trace import emit_series, traced
from .netlist import PhysicalNetlist

__all__ = [
    "Placement",
    "PlacementResult",
    "TimingCost",
    "place",
    "random_placement",
    "hpwl",
]


class TimingCost:
    """Per-connection timing term for the batched annealer (VPR-style).

    The timing-driven flow hands the annealer the flat connection arrays of
    the timing graph -- ``conn_src[c]`` / ``conn_dst[c]`` block ids, one
    entry per (net driver, net sink) pair -- plus a ``criticality`` callback
    that re-times a placement-estimate STA over the live block coordinates.
    The annealer then prices every move as

        delta = Q * delta_HPWL + sum_c  w_c * delta_dist_c

    where ``w_c = round(Q * tradeoff * criticality_c)`` and ``dist_c`` is
    the connection's Manhattan source-sink distance in unit wires (its
    placement-estimated delay up to constants).  Both terms are exact
    integers (``Q`` is the weight quantum), so the no-float-drift accounting
    of the plain kernels carries over.  Criticalities are refreshed from the
    callback every ``retime_every`` accepted moves -- criticality chases the
    anneal instead of being frozen between candidate anneals.
    """

    def __init__(
        self,
        conn_src: Sequence[int],
        conn_dst: Sequence[int],
        criticality: Callable[[List[int], List[int]], Sequence[float]],
        tradeoff: float = 4.0,
        retime_every: Optional[int] = None,
    ) -> None:
        self.conn_src = list(conn_src)
        self.conn_dst = list(conn_dst)
        if len(self.conn_src) != len(self.conn_dst):
            raise ValueError("conn_src and conn_dst must have equal length")
        self.criticality = criticality
        self.tradeoff = tradeoff
        self.retime_every = retime_every


@dataclass
class Placement:
    """Assignment of netlist blocks to FPGA sites."""

    block_site: Dict[int, Site] = field(default_factory=dict)

    def site_of(self, block: int) -> Site:
        return self.block_site[block]

    def location_of(self, block: int) -> Tuple[int, int]:
        s = self.block_site[block]
        return (s.x, s.y)

    def clone(self) -> "Placement":
        return Placement(dict(self.block_site))


@dataclass
class PlacementResult:
    """Placement plus quality metrics."""

    placement: Placement
    cost: int                   #: final total HPWL (exact integer)
    initial_cost: int
    moves_attempted: int
    moves_accepted: int
    temperature_steps: int
    #: final value of the weighted annealing objective when ``net_weights``
    #: were supplied (quantized-integer sum of weight * HPWL); ``None`` for
    #: plain HPWL annealing, where it would equal ``cost``.
    objective_cost: Optional[int] = None
    #: per-run observability snapshot (see OBSERVABILITY.md): the annealing
    #: schedule as parallel flat arrays -- ``temperature`` / ``cost`` /
    #: ``acceptance``, one entry per temperature step (the temperature the
    #: step annealed *at*, the total cost after it, and its acceptance
    #: rate).  Excluded from equality and never serialized into cache
    #: payloads, so ``PLACE_ALGO_VERSION`` is unaffected.
    telemetry: Optional[Dict[str, object]] = field(default=None, compare=False, repr=False)

    @property
    def improvement(self) -> float:
        if self.initial_cost == 0:
            return 0.0
        return 1.0 - self.cost / self.initial_cost


def _net_hpwl(xs: List[int], ys: List[int]) -> int:
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def hpwl(netlist: PhysicalNetlist, placement: Placement) -> int:
    """Total half-perimeter wirelength of all nets under a placement.

    HPWL over integer grid coordinates is an exact integer; every kernel
    keeps it as one (no float accumulation drift).
    """
    total = 0
    for net in netlist.nets:
        blocks = [net.driver] + net.sinks
        xs = [placement.block_site[b].x for b in blocks]
        ys = [placement.block_site[b].y for b in blocks]
        total += _net_hpwl(xs, ys)
    return total


def random_placement(
    netlist: PhysicalNetlist, arch: FPGAArchitecture, seed: int = 0
) -> Placement:
    """Random feasible initial placement (logic blocks on CLB sites, IOs on pads)."""
    rng = random.Random(seed)
    logic_sites = list(arch.clb_sites())
    io_sites = list(arch.io_sites())
    rng.shuffle(logic_sites)
    rng.shuffle(io_sites)

    logic_blocks = [b for b in netlist.blocks if b.needs_logic_site]
    io_blocks = [b for b in netlist.blocks if b.kind == "io"]
    if len(logic_blocks) > len(logic_sites):
        raise ValueError(
            f"design needs {len(logic_blocks)} logic sites but the device has "
            f"only {len(logic_sites)}"
        )
    if len(io_blocks) > len(io_sites):
        raise ValueError(
            f"design needs {len(io_blocks)} IO sites but the device has only {len(io_sites)}"
        )
    placement = Placement()
    for block, site in zip(logic_blocks, logic_sites):
        placement.block_site[block.id] = site
    for block, site in zip(io_blocks, io_sites):
        placement.block_site[block.id] = site
    return placement


def _moves_per_temperature(num_blocks: int, effort: float, inner_num: float) -> int:
    return max(10, int(effort * inner_num * 10 * (num_blocks ** (4.0 / 3.0)) / 10))


def _initial_temperature(initial_cost: float, num_nets: int) -> float:
    return max(1.0, 0.05 * initial_cost / max(1, num_nets) * 20)


def _cool(temperature: float, acceptance: float) -> float:
    """VPR-style adaptive cooling."""
    if acceptance > 0.96:
        return temperature * 0.5
    if acceptance > 0.8:
        return temperature * 0.9
    if acceptance > 0.15:
        return temperature * 0.95
    return temperature * 0.8


def _next_range_limit(range_limit: float, acceptance: float, device_span: float) -> float:
    """VPR range-limit update, clamped to the device size.

    Without the clamp the limit can grow without bound at high acceptance
    (``1.0 - 0.44 + acceptance`` exceeds 1 whenever acceptance > 0.44).
    """
    limit = max(1.0, range_limit * (1.0 - 0.44 + acceptance))
    return min(limit, device_span)


def _placement_telemetry(
    kernel: str,
    tl_temperature: List[float],
    tl_cost: List[int],
    tl_acceptance: List[float],
    moves_attempted: int,
    moves_accepted: int,
    native: Optional[bool] = None,
) -> Dict[str, object]:
    """Assemble a kernel's convergence telemetry and publish the counters.

    The three ``tl_*`` lists are parallel flat arrays with one entry per
    temperature step: the temperature the step annealed *at* (before
    cooling), the total cost after it, and its move acceptance rate.  The
    dict lands in :attr:`PlacementResult.telemetry`; aggregate counters go
    to the process-wide metrics registry and the cost curve to the trace
    (both no-ops unless enabled).
    """
    telemetry: Dict[str, object] = {
        "kernel": kernel,
        "temperature": tl_temperature,
        "cost": tl_cost,
        "acceptance": tl_acceptance,
    }
    if native is not None:
        telemetry["native"] = native
    obs_metrics.merge(
        {
            "place.calls": 1,
            "place.temperature_steps": len(tl_cost),
            "place.moves_attempted": moves_attempted,
            "place.moves_accepted": moves_accepted,
        }
    )
    emit_series("place.cost", tl_cost, kernel=kernel)
    return telemetry


@traced("par.place")
def place(
    netlist: PhysicalNetlist,
    arch: FPGAArchitecture,
    seed: int = 0,
    effort: float = 1.0,
    inner_num: float = 1.0,
    kernel: str = "batched",
    net_weights: Optional[Sequence[float]] = None,
    timing: Optional[TimingCost] = None,
) -> PlacementResult:
    """Simulated-annealing placement (TPLACE).

    ``effort`` scales the number of moves per temperature; values below 1
    trade quality for runtime (used by the fast benchmark configurations).
    ``kernel`` selects the annealing inner loop (see module docstring):
    ``batched`` (default) is the production kernel, ``reference`` the slow
    oracle its quality is banded against.

    ``net_weights`` (``batched`` kernel only) anneals the weighted objective
    ``sum(weight_i * hpwl_i)`` instead of plain HPWL -- the timing-driven
    flow passes ``1 + tradeoff * criticality`` per net so critical nets are
    pulled shorter.  Weights are quantized to integers (see
    :func:`_quantize_weights`), keeping the cost accounting exact;
    :attr:`PlacementResult.cost` still reports the *unweighted* integer HPWL
    and the weighted objective lands in
    :attr:`PlacementResult.objective_cost`.

    ``timing`` (``batched`` kernel only, exclusive with ``net_weights``)
    switches the anneal to the incremental-STA objective: plain HPWL plus a
    per-connection ``criticality * distance`` term whose criticalities are
    re-timed from the live coordinates inside the annealing loop (see
    :class:`TimingCost`).
    """
    if net_weights is not None and kernel != "batched":
        raise ValueError("net_weights requires the batched placement kernel")
    if timing is not None and kernel != "batched":
        raise ValueError("timing requires the batched placement kernel")
    if timing is not None and net_weights is not None:
        raise ValueError("timing and net_weights are mutually exclusive")
    if kernel == "reference":
        return _place_reference(netlist, arch, seed=seed, effort=effort, inner_num=inner_num)
    if kernel == "batched":
        return _place_batched(
            netlist, arch, seed=seed, effort=effort, inner_num=inner_num,
            net_weights=net_weights, timing=timing,
        )
    raise ValueError(f"unknown placement kernel {kernel!r}")


_WEIGHT_QUANTUM = 8  #: integer sub-steps per unit of net weight


def _quantize_weights(net_weights: Sequence[float], num_nets: int) -> List[int]:
    """Net weights as positive integers (``_WEIGHT_QUANTUM`` steps per unit).

    Integer weights keep the weighted annealing objective an exact integer
    -- the same no-float-drift guarantee the plain-HPWL kernels carry.  The
    quantization error is below ``1 / (2 * _WEIGHT_QUANTUM)`` per unit
    weight, well under the noise floor of the annealer.
    """
    if len(net_weights) != num_nets:
        raise ValueError(
            f"net_weights has {len(net_weights)} entries for {num_nets} nets"
        )
    q = [max(1, round(float(w) * _WEIGHT_QUANTUM)) for w in net_weights]
    if min(net_weights) < 0:
        raise ValueError("net weights must be non-negative")
    return q


def _csr_i64(lists: Sequence[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten a list-of-lists into ``(ptr, flat)`` int64 CSR arrays."""
    ptr = np.zeros(len(lists) + 1, dtype=np.int64)
    for i, lst in enumerate(lists):
        ptr[i + 1] = ptr[i] + len(lst)
    flat = np.fromiter(
        (v for lst in lists for v in lst), dtype=np.int64, count=int(ptr[-1])
    )
    return ptr, flat


def _place_batched(
    netlist: PhysicalNetlist,
    arch: FPGAArchitecture,
    seed: int = 0,
    effort: float = 1.0,
    inner_num: float = 1.0,
    net_weights: Optional[Sequence[float]] = None,
    timing: Optional[TimingCost] = None,
) -> PlacementResult:
    """Incremental-bbox annealer fed by block-drawn PCG64 randomness.

    Move selection draws 63-bit integers (reduced modulo
    the needed range -- the bias is below ``range / 2**63``, irrelevant to
    annealing) and acceptance draws uniforms, both fetched in blocks of
    2**14 from ``numpy.random.Generator(PCG64(seed))`` and consumed by plain
    list indexing, which removes the per-move ``random.Random`` call tax.
    The initial placement still comes from :func:`random_placement` with the
    same seed, so a (netlist, arch, seed) triple is fully reproducible.

    With ``net_weights`` the annealed objective is the quantized-integer
    weighted HPWL (see :func:`_quantize_weights`); every bbox update below
    simply scales its net's cost by the integer weight, so the O(1) move
    accounting is unchanged.  With ``timing`` the objective is instead
    ``Q * HPWL + sum_c w_c * dist_c`` over the timing graph's connections
    (see :class:`TimingCost`): each move additionally re-prices the moved
    blocks' connections -- O(pins moved), exactly like the bbox updates --
    and the integer criticality weights ``w_c`` are re-timed in place every
    ``retime_every`` accepted moves.

    When :func:`repro.native.annealer.annealer_kernel` returns a compiled
    kernel, the per-move loop runs in C over the same flat state (see the
    native block below); otherwise the pure-Python loop runs.  Both follow
    the identical trajectory for a given seed.
    """
    gen = np.random.Generator(np.random.PCG64(seed))
    placement = random_placement(netlist, arch, seed=seed)
    num_nets = len(netlist.nets)
    weighted = net_weights is not None
    if timing is not None:
        # Scale the HPWL term by the weight quantum so the quantized
        # integer timing weights blend at the configured tradeoff.
        wq = [_WEIGHT_QUANTUM] * num_nets
    elif weighted:
        wq = _quantize_weights(net_weights, num_nets)
    else:
        wq = [1] * num_nets

    logic_blocks = [b.id for b in netlist.blocks if b.needs_logic_site]
    io_blocks = [b.id for b in netlist.blocks if b.kind == "io"]
    logic_sites = list(arch.clb_sites())
    io_sites = list(arch.io_sites())
    all_sites = logic_sites + io_sites
    site_index = {s.as_tuple(): i for i, s in enumerate(all_sites)}
    site_x = [s.x for s in all_sites]
    site_y = [s.y for s in all_sites]

    num_block_ids = len(netlist.blocks)
    block_gsite = [-1] * num_block_ids
    block_x = [0] * num_block_ids
    block_y = [0] * num_block_ids
    occupant: List[Optional[int]] = [None] * len(all_sites)
    for bid, site in placement.block_site.items():
        gi = site_index[site.as_tuple()]
        block_gsite[bid] = gi
        block_x[bid] = site.x
        block_y[bid] = site.y
        occupant[gi] = bid

    # -- per-net cached bounding boxes -----------------------------------------
    # bb[nid] = (xmin, xmax, ymin, ymax, n_xmin, n_xmax, n_ymin, n_ymax)
    net_pins: List[List[int]] = []
    nets_of_block: List[List[int]] = [[] for _ in range(num_block_ids)]
    bb: List[Tuple[int, int, int, int, int, int, int, int]] = []
    net_cost: List[int] = []
    total_cost = 0
    for net in netlist.nets:
        # Deduplicate pins: a repeated block contributes nothing to the bbox
        # but would corrupt the boundary counts of the O(1) update below
        # (one move must remove exactly one pin from a boundary).
        pins = list(dict.fromkeys([net.driver] + net.sinks))
        net_pins.append(pins)
        for b in {net.driver, *net.sinks}:
            nets_of_block[b].append(net.id)
        xs = [block_x[b] for b in pins]
        ys = [block_y[b] for b in pins]
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        bb.append(
            (xmin, xmax, ymin, ymax,
             xs.count(xmin), xs.count(xmax), ys.count(ymin), ys.count(ymax))
        )
        cost = wq[net.id] * ((xmax - xmin) + (ymax - ymin))
        net_cost.append(cost)
        total_cost += cost
    initial_cost = total_cost
    weighted = weighted or timing is not None
    initial_hpwl = hpwl(netlist, placement) if weighted else initial_cost
    nets_of_block_set = [set(lst) for lst in nets_of_block]

    groups: List[Tuple[List[int], List[int], int, int]] = []
    if logic_blocks:
        gidx = list(range(len(logic_sites)))
        groups.append((logic_blocks, gidx, len(logic_blocks), len(gidx)))
    if io_blocks:
        gidx = list(range(len(logic_sites), len(all_sites)))
        groups.append((io_blocks, gidx, len(io_blocks), len(gidx)))
    if not groups:
        return PlacementResult(placement, 0, 0, 0, 0, 0)

    num_blocks = len(logic_blocks) + len(io_blocks)
    moves_per_temp = _moves_per_temperature(num_blocks, effort, inner_num)
    temperature = _initial_temperature(initial_cost, len(netlist.nets))
    device_span = float(max(arch.width, arch.height))
    range_limit = device_span

    moves_attempted = 0
    moves_accepted = 0
    temperature_steps = 0
    tl_temperature: List[float] = []
    tl_cost: List[int] = []
    tl_acceptance: List[float] = []
    num_groups = len(groups)
    logic_group = bool(logic_blocks)
    width, height = arch.width, arch.height
    exp = math.exp

    # Incremental-STA objective: flat per-connection distance/weight lists
    # plus the in-loop retime trigger.  A move re-prices only the moved
    # blocks' connections (O(pins moved), like the bbox updates); the
    # integer criticality weights are refreshed from the callback every
    # retime_every accepted moves.
    if timing is not None:
        t_src = timing.conn_src
        t_dst = timing.conn_dst
        nconn = len(t_src)
        conns_of_block: List[List[int]] = [[] for _ in range(num_block_ids)]
        for ci in range(nconn):
            conns_of_block[t_src[ci]].append(ci)
            if t_dst[ci] != t_src[ci]:
                conns_of_block[t_dst[ci]].append(ci)

        def retime_weights() -> List[int]:
            crit = np.asarray(
                timing.criticality(block_x, block_y), dtype=np.float64
            )
            if crit.shape != (nconn,):
                raise ValueError(
                    f"timing criticality returned {crit.shape}, expected ({nconn},)"
                )
            q = np.rint(_WEIGHT_QUANTUM * timing.tradeoff * crit)
            return q.astype(np.int64).tolist()

        c_dist = []
        for ci in range(nconn):
            dx = block_x[t_src[ci]] - block_x[t_dst[ci]]
            dy = block_y[t_src[ci]] - block_y[t_dst[ci]]
            d = (dx if dx >= 0 else -dx) + (dy if dy >= 0 else -dy)
            c_dist.append(d if d > 0 else 1)
        cwq = retime_weights()
        timing_cost = sum(w * d for w, d in zip(cwq, c_dist))
        retime_every = timing.retime_every or max(1, moves_per_temp // 2)
        # The timing term is part of the annealed cost: fold it into the
        # temperature scale too.
        temperature = _initial_temperature(
            initial_cost + timing_cost, len(netlist.nets)
        )
    else:
        t_src = t_dst = []
        nconn = 0
        conns_of_block = []
        c_dist = []
        cwq = []
        timing_cost = 0
        retime_every = 0
    accepted_since_retime = 0
    t_scratch: List[Tuple[int, int]] = []

    RBUF = 1 << 14
    IMAX = 1 << 63
    # Draw the initial buffers as arrays (shared with the native kernel when
    # it is available); the Python loop consumes them as plain lists.
    ibuf_arr = gen.integers(0, IMAX, size=RBUF, dtype=np.int64)
    ibuf = ibuf_arr.tolist()
    ipos = 0
    ubuf_arr = gen.random(RBUF)
    ubuf = ubuf_arr.tolist()
    upos = 0

    def _bbox_after_move(
        nid: int, ox: int, oy: int, nx: int, ny: int
    ) -> Tuple[int, int, int, int, int, int, int, int]:
        xmin, xmax, ymin, ymax, cxmin, cxmax, cymin, cymax = bb[nid]
        if nx != ox:
            if (ox == xmin and cxmin == 1 and nx > xmin) or (
                ox == xmax and cxmax == 1 and nx < xmax
            ):
                xs = [block_x[b] for b in net_pins[nid]]
                xmin, xmax = min(xs), max(xs)
                cxmin, cxmax = xs.count(xmin), xs.count(xmax)
            else:
                if ox == xmin:
                    cxmin -= 1
                if ox == xmax:
                    cxmax -= 1
                if nx < xmin:
                    xmin, cxmin = nx, 1
                elif nx == xmin:
                    cxmin += 1
                if nx > xmax:
                    xmax, cxmax = nx, 1
                elif nx == xmax:
                    cxmax += 1
        if ny != oy:
            if (oy == ymin and cymin == 1 and ny > ymin) or (
                oy == ymax and cymax == 1 and ny < ymax
            ):
                ys = [block_y[b] for b in net_pins[nid]]
                ymin, ymax = min(ys), max(ys)
                cymin, cymax = ys.count(ymin), ys.count(ymax)
            else:
                if oy == ymin:
                    cymin -= 1
                if oy == ymax:
                    cymax -= 1
                if ny < ymin:
                    ymin, cymin = ny, 1
                elif ny == ymin:
                    cymin += 1
                if ny > ymax:
                    ymax, cymax = ny, 1
                elif ny == ymax:
                    cymax += 1
        return (xmin, xmax, ymin, ymax, cxmin, cxmax, cymin, cymax)

    def _bbox_rescan(nid: int) -> Tuple[int, int, int, int, int, int, int, int]:
        xs = [block_x[b] for b in net_pins[nid]]
        ys = [block_y[b] for b in net_pins[nid]]
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        return (xmin, xmax, ymin, ymax,
                xs.count(xmin), xs.count(xmax), ys.count(ymin), ys.count(ymax))

    # -- native (compiled-C) move loop -----------------------------------
    # Bit-identical twin of the Python while-loop below (see
    # repro.native.annealer): the C loop consumes the same PCG64 draw
    # buffers -- calling back out to refill them at the Python kernel's
    # exact refill points -- keeps every cost an exact int64, and runs the
    # Metropolis test through the same libm exp, so trajectories match
    # move for move.  Cooling, range-limit adaptation, re-timing, and the
    # exit tests stay here in Python.
    nat = annealer_kernel()
    if nat is not None:
        block_gsite_a = np.asarray(block_gsite, dtype=np.int64)
        block_x_a = np.asarray(block_x, dtype=np.int64)
        block_y_a = np.asarray(block_y, dtype=np.int64)
        occupant_a = np.asarray(
            [-1 if o is None else o for o in occupant], dtype=np.int64
        )
        pins_ptr, pins_flat = _csr_i64(net_pins)
        nb_ptr, nb_flat = _csr_i64(nets_of_block)
        dummy = np.zeros(1, dtype=np.int64)
        g0b = np.asarray(groups[0][0], dtype=np.int64)
        g0s = np.asarray(groups[0][1], dtype=np.int64)
        if num_groups > 1:
            g1b = np.asarray(groups[1][0], dtype=np.int64)
            g1s = np.asarray(groups[1][1], dtype=np.int64)
        else:
            g1b = g1s = dummy
        if timing is not None:
            t_src_a = np.asarray(t_src, dtype=np.int64)
            t_dst_a = np.asarray(t_dst, dtype=np.int64)
            cb_ptr, cb_flat = _csr_i64(conns_of_block)
            c_dist_a = np.asarray(c_dist, dtype=np.int64)
            cwq_a = np.asarray(cwq, dtype=np.int64)
        else:
            t_src_a = t_dst_a = cb_flat = c_dist_a = cwq_a = dummy
            cb_ptr = np.zeros(num_block_ids + 1, dtype=np.int64)
        istate = np.zeros(ISTATE_LEN, dtype=np.int64)
        _S = ISTATE
        istate[_S["total_cost"]] = total_cost
        istate[_S["timing_cost"]] = timing_cost
        nat_exc: List[BaseException] = []

        def _refill(kind: int) -> None:
            # Runs under repro_anneal_run; exceptions cannot cross the C
            # frame, so stash + abort, then re-raise once the call returns.
            try:
                if kind == 0:
                    ibuf_arr[:] = gen.integers(
                        0, IMAX, size=RBUF, dtype=np.int64
                    )
                elif kind == 1:
                    ubuf_arr[:] = gen.random(RBUF)
                else:  # retime: refresh the integer criticality weights
                    crit = np.asarray(
                        timing.criticality(
                            block_x_a.tolist(), block_y_a.tolist()
                        ),
                        dtype=np.float64,
                    )
                    if crit.shape != (nconn,):
                        raise ValueError(
                            f"timing criticality returned {crit.shape},"
                            f" expected ({nconn},)"
                        )
                    cwq_a[:] = np.rint(
                        _WEIGHT_QUANTUM * timing.tradeoff * crit
                    ).astype(np.int64)
            except BaseException as e:  # noqa: BLE001 -- re-raised below
                nat_exc.append(e)
                istate[_S["abort"]] = 1

        nat.bind(
            {
                "block_gsite": block_gsite_a, "block_x": block_x_a,
                "block_y": block_y_a, "occupant": occupant_a,
                "site_x": np.asarray(site_x, dtype=np.int64),
                "site_y": np.asarray(site_y, dtype=np.int64),
                "pins_ptr": pins_ptr, "pins": pins_flat,
                "nb_ptr": nb_ptr, "nb": nb_flat,
                "bb": np.array(bb, dtype=np.int64).reshape(num_nets * 8),
                "net_cost": np.asarray(net_cost, dtype=np.int64),
                "wq": np.asarray(wq, dtype=np.int64),
                "gblocks0": g0b, "gsites0": g0s,
                "gblocks1": g1b, "gsites1": g1s,
                "ibuf": ibuf_arr, "ubuf": ubuf_arr,
                "t_src": t_src_a, "t_dst": t_dst_a,
                "cb_ptr": cb_ptr, "cb_conns": cb_flat,
                "c_dist": c_dist_a, "cwq": cwq_a,
                "net_mark": np.zeros(num_nets, dtype=np.int64),
                "upd_nid": np.zeros(num_nets + 1, dtype=np.int64),
                "upd_bb": np.zeros(8 * (num_nets + 1), dtype=np.int64),
                "upd_cost": np.zeros(num_nets + 1, dtype=np.int64),
                "tsc_ci": np.zeros(nconn + 1, dtype=np.int64),
                "tsc_nd": np.zeros(nconn + 1, dtype=np.int64),
                "istate": istate,
            },
            {
                "nblk0": groups[0][2], "nsit0": groups[0][3],
                "nblk1": groups[1][2] if num_groups > 1 else 1,
                "nsit1": groups[1][3] if num_groups > 1 else 1,
                "num_groups": num_groups,
                "logic_group": int(logic_group),
                "width": width, "height": height, "rbuf": RBUF,
                "has_timing": int(timing is not None),
                "nconn": nconn, "retime_every": retime_every,
            },
            _refill,
        )
        while temperature_steps < 200:
            istate[_S["accepted_this_temp"]] = 0
            range2 = range_limit * 2
            rl = int(range_limit)
            if rl < 1:
                rl = 1
            span = 2 * rl + 1
            nat.run_temperature(
                moves_per_temp, max(temperature, 1e-9), range2, rl, span
            )
            if nat_exc:
                raise nat_exc[0]
            total_cost = int(istate[_S["total_cost"]])
            timing_cost = int(istate[_S["timing_cost"]])
            temperature_steps += 1
            acceptance = int(istate[_S["accepted_this_temp"]]) / max(
                1, moves_per_temp
            )
            tl_temperature.append(temperature)
            tl_cost.append(total_cost + timing_cost)
            tl_acceptance.append(acceptance)
            temperature = _cool(temperature, acceptance)
            range_limit = _next_range_limit(range_limit, acceptance, device_span)
            if temperature < 0.005 * (total_cost + timing_cost) / max(
                1, len(netlist.nets)
            ) or (acceptance < 0.01 and temperature_steps > 5):
                break
        moves_attempted = int(istate[_S["attempted"]])
        moves_accepted = int(istate[_S["accepted"]])
        istate_snapshot = istate_counters(istate)
        block_gsite = block_gsite_a.tolist()

    while nat is None and temperature_steps < 200:
        accepted_this_temp = 0
        range2 = range_limit * 2
        # Window half-span for the O(1) logic-site pick below.
        rl = int(range_limit)
        if rl < 1:
            rl = 1
        span = 2 * rl + 1
        for _ in range(moves_per_temp):
            # Up to 10 integer draws per move (group + block + site picks).
            if ipos + 10 > RBUF:
                ibuf = gen.integers(0, IMAX, size=RBUF, dtype=np.int64).tolist()
                ipos = 0
            if num_groups == 1:
                gi = 0
            else:
                gi = ibuf[ipos] & 1
                ipos += 1
            blocks, gsites, nblk, nsit = groups[gi]
            block = blocks[ibuf[ipos] % nblk]
            ipos += 1
            cur_g = block_gsite[block]
            cx = block_x[block]
            cy = block_y[block]
            if logic_group and gi == 0:
                # Logic sites form the (1..width, 1..height) grid in column-
                # major order, so a target inside the range-limit window is
                # picked in O(1) as a random offset -- no rejection loop.
                tx = cx + ibuf[ipos] % span - rl
                ipos += 1
                ty = cy + ibuf[ipos] % span - rl
                ipos += 1
                if tx < 1:
                    tx = 1
                elif tx > width:
                    tx = width
                if ty < 1:
                    ty = 1
                elif ty > height:
                    ty = height
                target_g = (tx - 1) * height + (ty - 1)
                if target_g == cur_g:
                    continue
            else:
                target_g = -1
                for _try in range(8):
                    tg = gsites[ibuf[ipos] % nsit]
                    ipos += 1
                    dx = site_x[tg] - cx
                    if dx < 0:
                        dx = -dx
                    dy = site_y[tg] - cy
                    if dy < 0:
                        dy = -dy
                    if dx + dy > range2:
                        continue
                    if tg != cur_g:
                        target_g = tg
                        break
                if target_g < 0:
                    continue
            moves_attempted += 1
            occ_block = occupant[target_g]
            nx = site_x[target_g]
            ny = site_y[target_g]

            block_x[block] = nx
            block_y[block] = ny
            if occ_block is not None:
                block_x[occ_block] = cx
                block_y[occ_block] = cy

            delta = 0
            updates: List[Tuple[int, Tuple[int, int, int, int, int, int, int, int], int]] = []
            if occ_block is None:
                # Common case (move into an empty site): inline the O(1)
                # bbox update; only a boundary shrink rescans the net's pins.
                for nid in nets_of_block[block]:
                    xmin, xmax, ymin, ymax, cxmin, cxmax, cymin, cymax = bb[nid]
                    if nx != cx:
                        if (cx == xmin and cxmin == 1 and nx > xmin) or (
                            cx == xmax and cxmax == 1 and nx < xmax
                        ):
                            pxs = [block_x[b] for b in net_pins[nid]]
                            xmin, xmax = min(pxs), max(pxs)
                            cxmin, cxmax = pxs.count(xmin), pxs.count(xmax)
                        else:
                            if cx == xmin:
                                cxmin -= 1
                            if cx == xmax:
                                cxmax -= 1
                            if nx < xmin:
                                xmin, cxmin = nx, 1
                            elif nx == xmin:
                                cxmin += 1
                            if nx > xmax:
                                xmax, cxmax = nx, 1
                            elif nx == xmax:
                                cxmax += 1
                    if ny != cy:
                        if (cy == ymin and cymin == 1 and ny > ymin) or (
                            cy == ymax and cymax == 1 and ny < ymax
                        ):
                            pys = [block_y[b] for b in net_pins[nid]]
                            ymin, ymax = min(pys), max(pys)
                            cymin, cymax = pys.count(ymin), pys.count(ymax)
                        else:
                            if cy == ymin:
                                cymin -= 1
                            if cy == ymax:
                                cymax -= 1
                            if ny < ymin:
                                ymin, cymin = ny, 1
                            elif ny == ymin:
                                cymin += 1
                            if ny > ymax:
                                ymax, cymax = ny, 1
                            elif ny == ymax:
                                cymax += 1
                    cost = wq[nid] * ((xmax - xmin) + (ymax - ymin))
                    delta += cost - net_cost[nid]
                    updates.append(
                        (nid, (xmin, xmax, ymin, ymax, cxmin, cxmax, cymin, cymax), cost)
                    )
            else:
                block_nets = nets_of_block[block]
                occ_nets = nets_of_block[occ_block]
                shared = nets_of_block_set[block] & nets_of_block_set[occ_block]
                for nid in block_nets:
                    if nid in shared:
                        nb = _bbox_rescan(nid)  # both endpoints moved
                    else:
                        nb = _bbox_after_move(nid, cx, cy, nx, ny)
                    cost = wq[nid] * ((nb[1] - nb[0]) + (nb[3] - nb[2]))
                    delta += cost - net_cost[nid]
                    updates.append((nid, nb, cost))
                for nid in occ_nets:
                    if nid in shared:
                        continue
                    nb = _bbox_after_move(nid, nx, ny, cx, cy)
                    cost = wq[nid] * ((nb[1] - nb[0]) + (nb[3] - nb[2]))
                    delta += cost - net_cost[nid]
                    updates.append((nid, nb, cost))

            if timing is not None:
                # Re-price the moved blocks' connections against the
                # tentative coordinates (a connection both blocks share is
                # handled once, in the first loop).
                del t_scratch[:]
                for ci in conns_of_block[block]:
                    s = t_src[ci]
                    d2 = t_dst[ci]
                    dx = block_x[s] - block_x[d2]
                    if dx < 0:
                        dx = -dx
                    dy = block_y[s] - block_y[d2]
                    if dy < 0:
                        dy = -dy
                    nd = dx + dy
                    if nd == 0:
                        nd = 1
                    delta += cwq[ci] * (nd - c_dist[ci])
                    t_scratch.append((ci, nd))
                if occ_block is not None:
                    for ci in conns_of_block[occ_block]:
                        s = t_src[ci]
                        d2 = t_dst[ci]
                        if s == block or d2 == block:
                            continue  # shared connection, re-priced above
                        dx = block_x[s] - block_x[d2]
                        if dx < 0:
                            dx = -dx
                        dy = block_y[s] - block_y[d2]
                        if dy < 0:
                            dy = -dy
                        nd = dx + dy
                        if nd == 0:
                            nd = 1
                        delta += cwq[ci] * (nd - c_dist[ci])
                        t_scratch.append((ci, nd))

            if delta <= 0:
                accept = True
            else:
                if upos >= RBUF:
                    ubuf = gen.random(RBUF).tolist()
                    upos = 0
                accept = ubuf[upos] < exp(-delta / max(temperature, 1e-9))
                upos += 1
            if accept:
                for nid, nb, cost in updates:
                    bb[nid] = nb
                    total_cost += cost - net_cost[nid]
                    net_cost[nid] = cost
                occupant[target_g] = block
                occupant[cur_g] = occ_block
                block_gsite[block] = target_g
                if occ_block is not None:
                    block_gsite[occ_block] = cur_g
                moves_accepted += 1
                accepted_this_temp += 1
                if timing is not None:
                    for ci, nd in t_scratch:
                        timing_cost += cwq[ci] * (nd - c_dist[ci])
                        c_dist[ci] = nd
                    accepted_since_retime += 1
                    if accepted_since_retime >= retime_every:
                        # Re-time against the live coordinates: fresh
                        # integer weights, total re-priced (distances are
                        # maintained incrementally and stay exact).
                        accepted_since_retime = 0
                        cwq = retime_weights()
                        timing_cost = 0
                        for ci in range(nconn):
                            timing_cost += cwq[ci] * c_dist[ci]
            else:
                block_x[block] = cx
                block_y[block] = cy
                if occ_block is not None:
                    block_x[occ_block] = nx
                    block_y[occ_block] = ny

        temperature_steps += 1
        acceptance = accepted_this_temp / max(1, moves_per_temp)
        tl_temperature.append(temperature)
        tl_cost.append(total_cost + timing_cost)
        tl_acceptance.append(acceptance)
        temperature = _cool(temperature, acceptance)
        range_limit = _next_range_limit(range_limit, acceptance, device_span)
        if temperature < 0.005 * (total_cost + timing_cost) / max(
            1, len(netlist.nets)
        ) or (acceptance < 0.01 and temperature_steps > 5):
            break

    for bid in range(num_block_ids):
        gi = block_gsite[bid]
        if gi >= 0:
            placement.block_site[bid] = all_sites[gi]

    telemetry = _placement_telemetry(
        "batched", tl_temperature, tl_cost, tl_acceptance,
        moves_attempted, moves_accepted, native=nat is not None,
    )
    if nat is not None:
        # Full counter out-param snapshot from the C kernel (see
        # repro.native.annealer.istate_counters).
        telemetry["istate"] = istate_snapshot
    if weighted:
        # Report the unweighted exact-int HPWL (the metric every consumer
        # compares across kernels); the annealed weighted objective rides
        # along separately.
        return PlacementResult(
            placement=placement,
            cost=hpwl(netlist, placement),
            initial_cost=initial_hpwl,
            moves_attempted=moves_attempted,
            moves_accepted=moves_accepted,
            temperature_steps=temperature_steps,
            objective_cost=total_cost + timing_cost,
            telemetry=telemetry,
        )
    return PlacementResult(
        placement=placement,
        cost=total_cost,
        initial_cost=initial_cost,
        moves_attempted=moves_attempted,
        moves_accepted=moves_accepted,
        temperature_steps=temperature_steps,
        telemetry=telemetry,
    )


# -- reference kernel (slow oracle, quality baseline) ---------------------------


class _AnnealingState:
    """Book-keeping for full-recompute HPWL evaluation (reference kernel)."""

    def __init__(self, netlist: PhysicalNetlist, placement: Placement) -> None:
        self.netlist = netlist
        self.placement = placement
        self.nets_of_block: Dict[int, List[int]] = {b.id: [] for b in netlist.blocks}
        for net in netlist.nets:
            for b in {net.driver, *net.sinks}:
                self.nets_of_block[b].append(net.id)
        self.net_cost: List[int] = [0] * len(netlist.nets)
        for net in netlist.nets:
            self.net_cost[net.id] = self._compute_net_cost(net.id)
        self.total_cost = sum(self.net_cost)

    def _compute_net_cost(self, net_id: int) -> int:
        net = self.netlist.nets[net_id]
        blocks = [net.driver] + net.sinks
        xs = [self.placement.block_site[b].x for b in blocks]
        ys = [self.placement.block_site[b].y for b in blocks]
        return _net_hpwl(xs, ys)

    def delta_for_nets(self, net_ids: List[int]) -> Tuple[int, Dict[int, int]]:
        new_costs = {nid: self._compute_net_cost(nid) for nid in net_ids}
        delta = sum(new_costs[nid] - self.net_cost[nid] for nid in net_ids)
        return delta, new_costs

    def commit(self, new_costs: Dict[int, int]) -> None:
        for nid, cost in new_costs.items():
            self.total_cost += cost - self.net_cost[nid]
            self.net_cost[nid] = cost


def _place_reference(
    netlist: PhysicalNetlist,
    arch: FPGAArchitecture,
    seed: int = 0,
    effort: float = 1.0,
    inner_num: float = 1.0,
) -> PlacementResult:
    """Original annealing loop: recompute affected nets' HPWL from pin lists."""
    rng = random.Random(seed)
    placement = random_placement(netlist, arch, seed=seed)
    state = _AnnealingState(netlist, placement)
    initial_cost = state.total_cost

    logic_blocks = [b.id for b in netlist.blocks if b.needs_logic_site]
    io_blocks = [b.id for b in netlist.blocks if b.kind == "io"]
    logic_sites = list(arch.clb_sites())
    io_sites = list(arch.io_sites())

    site_occupant: Dict[Tuple, Optional[int]] = {}
    for s in logic_sites + io_sites:
        site_occupant[s.as_tuple()] = None
    for bid, site in placement.block_site.items():
        site_occupant[site.as_tuple()] = bid

    movable_groups = []
    if logic_blocks:
        movable_groups.append(("logic", logic_blocks, logic_sites))
    if io_blocks:
        movable_groups.append(("io", io_blocks, io_sites))
    if not movable_groups:
        return PlacementResult(placement, 0, 0, 0, 0, 0)

    num_blocks = len(logic_blocks) + len(io_blocks)
    moves_per_temp = _moves_per_temperature(num_blocks, effort, inner_num)
    temperature = _initial_temperature(initial_cost, len(netlist.nets))
    device_span = float(max(arch.width, arch.height))
    range_limit = device_span

    moves_attempted = 0
    moves_accepted = 0
    temperature_steps = 0
    tl_temperature: List[float] = []
    tl_cost: List[int] = []
    tl_acceptance: List[float] = []

    def pick_move():
        group = movable_groups[rng.randrange(len(movable_groups))]
        _, blocks, sites = group
        block = blocks[rng.randrange(len(blocks))]
        cur = placement.block_site[block]
        for _ in range(8):
            target = sites[rng.randrange(len(sites))]
            if target.kind != cur.kind:
                continue
            if abs(target.x - cur.x) + abs(target.y - cur.y) > range_limit * 2:
                continue
            if target.as_tuple() != cur.as_tuple():
                return block, cur, target
        return None

    while temperature_steps < 200:
        accepted_this_temp = 0
        for _ in range(moves_per_temp):
            move = pick_move()
            if move is None:
                continue
            block, cur, target = move
            moves_attempted += 1
            occupant = site_occupant[target.as_tuple()]

            affected = set(state.nets_of_block[block])
            if occupant is not None:
                affected.update(state.nets_of_block[occupant])

            # tentatively apply
            placement.block_site[block] = target
            if occupant is not None:
                placement.block_site[occupant] = cur
            delta, new_costs = state.delta_for_nets(list(affected))

            accept = delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9))
            if accept:
                state.commit(new_costs)
                site_occupant[target.as_tuple()] = block
                site_occupant[cur.as_tuple()] = occupant
                moves_accepted += 1
                accepted_this_temp += 1
            else:
                placement.block_site[block] = cur
                if occupant is not None:
                    placement.block_site[occupant] = target

        temperature_steps += 1
        acceptance = accepted_this_temp / max(1, moves_per_temp)
        tl_temperature.append(temperature)
        tl_cost.append(state.total_cost)
        tl_acceptance.append(acceptance)
        temperature = _cool(temperature, acceptance)
        range_limit = _next_range_limit(range_limit, acceptance, device_span)
        if temperature < 0.005 * state.total_cost / max(1, len(netlist.nets)) or (
            acceptance < 0.01 and temperature_steps > 5
        ):
            break

    return PlacementResult(
        placement=placement,
        cost=state.total_cost,
        initial_cost=initial_cost,
        moves_attempted=moves_attempted,
        moves_accepted=moves_accepted,
        temperature_steps=temperature_steps,
        telemetry=_placement_telemetry(
            "reference", tl_temperature, tl_cost, tl_acceptance,
            moves_attempted, moves_accepted,
        ),
    )

"""TPaR flow driver: placement + routing + metrics for a mapped network.

This is the physical half of the paper's evaluation: given a technology
mapped Processing Element (conventional or fully parameterized), it sizes an
FPGA, places the blocks, routes the nets and reports the quantities of
Table I (wirelength, channel width, logic depth) plus timing estimates.

Two parallel/caching facilities ride on top of the single-shot flow:

* :func:`placement_sweep` anneals one netlist across many seeds -- in a
  ``concurrent.futures`` process pool when ``workers`` > 1 -- and memoizes
  each (netlist, arch, seed) placement in an on-disk
  :class:`~repro.par.cache.PaRCache`, so multi-seed quality baselines are
  computed once per machine;
* :func:`place_and_route` forwards ``workers``/``cache`` to the
  minimum-channel-width search (see :mod:`repro.par.metrics`), which is the
  dominant cost of the Table I/II benchmarks.

Since PR 4 the flow also carries the timing axis: every result embeds a
full STA (:attr:`PaRResult.sta`, from :mod:`repro.timing`) and
``objective="timing"`` switches placement and routing to the
criticality-driven cost functions (:func:`timing_driven_placement`,
``route(objective="timing")``).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..fpga.architecture import FPGAArchitecture, auto_size
from ..fpga.device import Device, build_device
from ..obs.trace import span, traced
from ..techmap.mapping import MappedNetwork
from ..timing.delays import structural_edge_delays
from ..timing.graph import build_timing_graph
from ..timing.sta import (
    TimingAnalysis,
    analyze,
    net_criticality_from_placement,
    scan_edge_criticality,
)
from ..util.resilience import FaultInjected, count_events, inject, record_event
from .cache import PaRCache
from .metrics import MinChannelWidthResult, minimum_channel_width
from .netlist import PhysicalNetlist, from_mapped_network
from .placement import Placement, PlacementResult, TimingCost, place
from .routing import (
    AUTO_KERNEL,
    RoutingResult,
    route_resilient,
    routing_from_payload,
    routing_to_payload,
)
from .timing import TimingReport, report_from_analysis

__all__ = [
    "PaRResult",
    "place_and_route",
    "cached_route",
    "timing_driven_placement",
    "placement_sweep",
    "best_placement",
]


@dataclass
class PaRResult:
    """Complete place-and-route outcome for one mapped network."""

    network: MappedNetwork
    netlist: PhysicalNetlist
    device: Device
    placement: PlacementResult
    routing: RoutingResult
    timing: TimingReport
    min_channel_width: Optional[MinChannelWidthResult] = None
    #: full STA over the routed design (arrival/slack/criticality arrays,
    #: critical-path breakdown); the legacy ``timing`` report above is
    #: derived from it.
    sta: Optional[TimingAnalysis] = None
    objective: str = "wirelength"
    #: structured recovery log: every fault hit, retry, cache fallback,
    #: pool resubmit and kernel degradation the flow absorbed while
    #: producing this result (see RESILIENCE.md for the event taxonomy).
    #: Empty on a fault-free run.
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: per-run observability snapshot (see OBSERVABILITY.md): the routing
    #: and placement convergence telemetry, the cache counters that served
    #: this run, and per-kind recovery-event counts.  Never serialized into
    #: cache payloads; ``None`` only for results built outside
    #: :func:`place_and_route`.
    telemetry: Optional[Dict[str, Any]] = field(default=None, compare=False, repr=False)

    @property
    def wirelength(self) -> int:
        return self.routing.wirelength

    @property
    def logic_depth(self) -> int:
        return self.timing.logic_depth

    @property
    def degraded(self) -> bool:
        """True when the routing kernel degradation chain was taken."""
        return count_events(self.events, "degraded-kernel") > 0

    def summary(self) -> Dict[str, float]:
        """Key metrics as a flat dict (used by the Table I benchmark)."""
        out = {
            "luts": self.network.num_luts(),
            "tluts": self.network.num_tluts(),
            "tcons": self.network.num_tcons(),
            "logic_depth": self.logic_depth,
            "wirelength": self.wirelength,
            "channel_width": self.device.arch.channel_width,
            "critical_path_ns": self.timing.critical_path_ns,
            "placement_hpwl": self.placement.cost,
            "array_side": self.device.arch.width,
            "routed": self.routing.success,
            "objective": self.objective,
            "recovery_events": len(self.events),
            "degraded_kernel": count_events(self.events, "degraded-kernel"),
        }
        if self.sta is not None:
            out["worst_slack_ns"] = self.sta.summary()["worst_slack_ns"]
        if self.min_channel_width is not None:
            out["min_channel_width"] = self.min_channel_width.min_channel_width
        cache_stats = (self.telemetry or {}).get("cache")
        if cache_stats is not None:
            out["cache_hits"] = cache_stats["hits"]
            out["cache_misses"] = cache_stats["misses"]
            out["cache_hit_rate"] = cache_stats["hit_rate"]
        return out


@traced("par.cached_route")
def cached_route(
    netlist: PhysicalNetlist,
    placement: Placement,
    device: Device,
    cache: Optional[PaRCache] = None,
    max_iterations: int = 25,
    kernel: str = "auto",
    objective: str = "wirelength",
    criticality_exponent: float = 1.0,
    deadline_s: Optional[float] = None,
    degrade: bool = True,
    events: Optional[List[Dict[str, Any]]] = None,
) -> RoutingResult:
    """Resilient :func:`~repro.par.routing.route` with on-disk memoization.

    The cache value carries the flat route forest next to the metrics, so a
    hit re-hydrates the *full* :class:`RoutingResult` -- route trees
    included -- instead of re-routing; reconfiguration experiments that
    re-run the same (netlist, placement, architecture) triple pay the
    route once per machine.  Kernels without a forest (``fast`` /
    ``reference``) and corrupt or pre-forest cache entries degrade to a
    plain route call.  Routing is deterministic for fixed inputs, so a
    re-hydrated result is the one a fresh route would return.

    Failure semantics (all recorded into ``events``): a corrupt cache
    entry or a bad forest payload falls back to a fresh route
    (``cache-fallback``); the route itself runs under
    :func:`~repro.par.routing.route_resilient` with a ``deadline_s``
    per-kernel budget and the astar->fast degradation chain (wavefront
    only enters the chain when explicitly requested).
    A result produced by a *degraded* kernel is never stored under the
    requested kernel's key, so one bad run cannot poison the cache for
    fault-free reruns.
    """
    resolved = kernel
    if resolved == "auto":
        resolved = AUTO_KERNEL
    key = None
    if cache is not None and kernel not in ("fast", "reference"):
        key = PaRCache.route_key(
            netlist,
            placement,
            device.arch,
            device.arch.channel_width,
            max_iterations,
            kernel,
            objective=objective,
            tag=f"x{criticality_exponent}" if objective == "timing" else "",
        )
        hit = cache.get(key, events=events)
        if hit is not None:
            result = None
            if inject("cache.hydrate") is None:
                result = routing_from_payload(hit)
            if result is not None and (
                result.kernel is None or result.kernel == resolved
            ):
                # Re-hydrated results carry no convergence arrays (those are
                # never serialized); mark the provenance instead.
                result.telemetry = {"from_cache": True, "kernel": result.kernel}
                return result
            # Entry exists but cannot be trusted (corrupt forest payload,
            # injected hydration fault, or a kernel mismatch from a
            # degraded historic write): route fresh and overwrite it.
            record_event(events, "cache-fallback", site="cache.hydrate", key=key)
    result = route_resilient(
        netlist,
        placement,
        device,
        max_iterations=max_iterations,
        kernel=kernel,
        objective=objective,
        criticality_exponent=criticality_exponent,
        deadline_s=deadline_s,
        degrade=degrade,
        events=events,
    )
    if key is not None and result.kernel == resolved:
        payload = routing_to_payload(result)
        if payload is not None:
            cache.put(key, payload, events=events)
    return result


@traced("par.flow")
def place_and_route(
    network: MappedNetwork,
    arch: Optional[FPGAArchitecture] = None,
    channel_width: int = 10,
    placement_effort: float = 1.0,
    router_iterations: int = 25,
    find_min_channel_width: bool = False,
    min_cw_bounds: tuple = (2, 32),
    seed: int = 0,
    route_kernel: str = "auto",
    min_cw_route_kernel: str = "auto",
    workers: Optional[int] = None,
    cache: Optional[PaRCache] = None,
    objective: str = "wirelength",
    timing_tradeoff: Optional[float] = None,
    timing_passes: int = 2,
    timing_placer: str = "incremental",
    route_deadline_s: Optional[float] = None,
) -> PaRResult:
    """Run the full TPaR flow (TPLACE + TROUTE) on a mapped network.

    Parameters
    ----------
    network:
        Output of :func:`~repro.techmap.map_conventional` or
        :func:`~repro.techmap.map_parameterized`.
    arch:
        Target architecture.  When omitted the array is auto-sized for the
        design at the requested ``channel_width`` (the paper's experiments use
        the VPR auto-sizing with W = 10).
    placement_effort:
        Scales annealing effort; lower is faster but noisier.
    find_min_channel_width:
        Additionally run the binary search for the minimum channel width
        (Table I's CW column).  This re-routes the design several times;
        ``workers`` parallelizes the probes and ``cache`` memoizes them
        (defaults to ``PaRCache.from_env()``).  The probes use
        ``min_cw_route_kernel`` (default ``auto``, resolving to the scalar
        astar kernel below paper scale): widths below the minimum are
        non-convergent by construction, which is the scalar kernel's fast
        case -- see :func:`repro.par.metrics.minimum_channel_width`.
    objective:
        ``"wirelength"`` (placement runs :func:`repro.par.placement.place`
        with its native ``batched`` kernel) or ``"timing"``: placement runs
        :func:`timing_driven_placement` (criticality-weighted annealing,
        incremental-STA by default -- ``timing_placer`` selects the mode)
        and routing runs the VPR-style blended cost
        ``crit * delay + (1 - crit) * congestion`` with per-iteration
        criticality updates over the flat route forest.
        ``timing_tradeoff`` scales the net weights, ``timing_passes`` the
        number of re-weighting anneals of the ``candidates`` placer mode.
        Every result carries the full STA in :attr:`PaRResult.sta` either
        way.

    With a ``cache`` (or ``REPRO_PAR_CACHE`` set) the main route is served
    through :func:`cached_route`: repeated flows over the same placed
    design re-hydrate their route trees from disk instead of re-routing.

    The flow is *resilient*: cache rot falls back to recomputation, a
    crashed pool worker in the min-channel-width search resubmits its
    probes serially, and ``route_deadline_s`` bounds each routing kernel's
    wall time with automatic degradation down the
    astar->fast chain.  Every recovery taken is recorded in
    :attr:`PaRResult.events`; a fault-free run has an empty list and is
    bit-identical to the pre-resilience flow.
    """
    if objective not in ("wirelength", "timing"):
        raise ValueError(f"unknown PAR objective {objective!r}")
    netlist = from_mapped_network(network)
    num_logic = netlist.num_logic_blocks() + netlist.num_ff_blocks()
    num_ios = netlist.num_io_blocks()
    if arch is None:
        arch = auto_size(num_logic, num_ios, channel_width=channel_width)
    device = build_device(arch)
    if cache is None:
        cache = PaRCache.from_env()

    if objective == "timing":
        placement = timing_driven_placement(
            netlist,
            arch,
            seed=seed,
            effort=placement_effort,
            tradeoff=timing_tradeoff,
            passes=timing_passes,
            mode=timing_placer,
        )
    else:
        placement = place(
            netlist,
            arch,
            seed=seed,
            effort=placement_effort,
        )
    events: List[Dict[str, Any]] = []
    routing = cached_route(
        netlist,
        placement.placement,
        device,
        cache=cache,
        max_iterations=router_iterations,
        kernel=route_kernel,
        objective=objective,
        criticality_exponent=2.0 if objective == "timing" else 1.0,
        deadline_s=route_deadline_s,
        events=events,
    )
    sta = analyze(netlist, routing, device, placement=placement.placement)
    timing = report_from_analysis(sta, network, routing, device)

    min_cw = None
    if find_min_channel_width:
        min_cw = minimum_channel_width(
            netlist,
            placement.placement,
            arch,
            low=min_cw_bounds[0],
            high=min_cw_bounds[1],
            route_kernel=min_cw_route_kernel,
            workers=workers,
            cache=cache,
        )
        events.extend(min_cw.events)

    # Per-run observability snapshot: the kernels' convergence telemetry,
    # the cache counters, and the recovery events folded to per-kind counts.
    telemetry: Dict[str, Any] = {
        "route": routing.telemetry,
        "place": placement.telemetry,
    }
    if cache is not None:
        cache_stats: Dict[str, Any] = dict(cache.stats())
        cache_stats["hit_rate"] = cache.hit_rate()
        telemetry["cache"] = cache_stats
    if events:
        by_kind: Dict[str, int] = {}
        for ev in events:
            kind = ev.get("event", "?")
            by_kind[kind] = by_kind.get(kind, 0) + 1
        telemetry["events"] = by_kind

    return PaRResult(
        network=network,
        netlist=netlist,
        device=device,
        placement=placement,
        routing=routing,
        timing=timing,
        min_channel_width=min_cw,
        sta=sta,
        objective=objective,
        events=events,
        telemetry=telemetry,
    )


#: Default criticality tradeoff per placer mode.  The incremental mode's
#: per-connection ``crit * distance`` term is re-timed in the loop, so a
#: stale weight decays as soon as its connection stops being critical --
#: it tolerates (and measures best at) a sharper pull than the frozen
#: between-anneal net weights of the candidates mode.
_MODE_TRADEOFF = {"incremental": 4.0, "candidates": 3.0}


def timing_driven_placement(
    netlist: PhysicalNetlist,
    arch: FPGAArchitecture,
    seed: int = 0,
    effort: float = 1.0,
    inner_num: float = 1.0,
    tradeoff: Optional[float] = None,
    passes: int = 2,
    exponent: float = 2.0,
    mode: str = "incremental",
    retime_every: Optional[int] = None,
) -> PlacementResult:
    """Criticality-driven annealing; incremental-STA by default.

    ``mode="incremental"`` (default) is the VPR-style incremental-STA
    placer: **one** ``batched`` anneal whose objective is plain HPWL plus a
    per-connection ``criticality * distance`` term over the timing graph's
    flat edge arrays (:class:`repro.par.placement.TimingCost`).  Every
    ``retime_every`` accepted moves (default: half a temperature step) the
    live block coordinates feed a placement-estimate STA
    (:func:`repro.timing.sta.scan_edge_criticality`, pure NumPy) and the
    per-connection weights are refreshed in place -- criticality chases
    the anneal instead of being frozen between candidate anneals, and each
    *sink* is priced by its own slack rather than by its net's worst one.
    One anneal replaces the candidate recipe's four (~0.3x the placement
    time, measured in ``BENCH_hotpaths.json`` and gated by
    ``check_quality.py``).

    ``mode="candidates"`` is PR 4's recipe, kept as the comparison
    baseline: anneal an unweighted candidate, a structurally-weighted
    candidate and ``passes`` re-weighted candidates (net-level weights,
    criticalities frozen *between* anneals), then pick the best estimated
    critical path.

    ``tradeoff`` defaults per mode (see ``_MODE_TRADEOFF``).
    """
    if tradeoff is None:
        tradeoff = _MODE_TRADEOFF.get(mode, 3.0)
    graph = build_timing_graph(netlist, arch.lut_delay_ns)

    def estimate(result: PlacementResult) -> Tuple[float, List[float]]:
        return net_criticality_from_placement(graph, result.placement, arch, exponent=exponent)

    def fold_structural() -> np.ndarray:
        _dmax, crit = scan_edge_criticality(graph, structural_edge_delays(graph, arch))
        if exponent != 1.0:
            crit = crit**exponent
        net_crit = np.zeros(len(netlist.nets))
        if graph.num_edges:
            np.maximum.at(net_crit, graph.edge_net, crit)
        return net_crit

    if mode == "incremental":

        def conn_criticality(block_x: List[int], block_y: List[int]) -> np.ndarray:
            from ..timing.delays import estimated_edge_delays_from_coords

            delays = estimated_edge_delays_from_coords(graph, block_x, block_y, arch)[0]
            _cp, crit = scan_edge_criticality(graph, delays)
            return crit**exponent if exponent != 1.0 else crit

        return place(
            netlist,
            arch,
            seed=seed,
            effort=effort,
            inner_num=inner_num,
            kernel="batched",
            timing=TimingCost(
                conn_src=graph.edge_src.tolist(),
                conn_dst=graph.edge_dst.tolist(),
                criticality=conn_criticality,
                tradeoff=tradeoff,
                retime_every=retime_every,
            ),
        )

    if mode != "candidates":
        raise ValueError(f"unknown timing placement mode {mode!r}")

    candidates: List[Tuple[float, PlacementResult]] = []
    base = place(netlist, arch, seed=seed, effort=effort, inner_num=inner_num, kernel="batched")
    best_cp, best_crit = estimate(base)
    candidates.append((best_cp, base))

    struct_w = [1.0 + tradeoff * c for c in fold_structural()]
    cand = place(
        netlist,
        arch,
        seed=seed,
        effort=effort,
        inner_num=inner_num,
        kernel="batched",
        net_weights=struct_w,
    )
    cp, crit = estimate(cand)
    if cp < best_cp:
        best_cp, best_crit = cp, crit
    candidates.append((cp, cand))

    for i in range(1, passes + 1):
        weights = [1.0 + tradeoff * c for c in best_crit]
        cand = place(
            netlist,
            arch,
            seed=seed + 1000 * i,
            effort=effort,
            inner_num=inner_num,
            kernel="batched",
            net_weights=weights,
        )
        cp, crit = estimate(cand)
        if cp < best_cp:
            best_cp, best_crit = cp, crit
        candidates.append((cp, cand))

    return min(candidates, key=lambda t: t[0])[1]


def _place_seed_task(args: Tuple) -> Tuple[int, Dict]:
    """Pool worker: anneal one seed, return JSON-serializable placement data."""
    netlist, arch, seed, effort, inner_num, kernel = args
    fault = inject("sweep.place")
    if fault == "crash":
        # Simulated hard worker death: kills the process without unwinding,
        # which the parent sees as a BrokenProcessPool.
        os._exit(13)
    if fault is not None:
        raise FaultInjected("sweep.place", kind=fault)
    result = place(netlist, arch, seed=seed, effort=effort, inner_num=inner_num, kernel=kernel)
    return seed, _placement_payload(result)


def _placement_payload(result: PlacementResult) -> Dict:
    return {
        "cost": result.cost,
        "initial_cost": result.initial_cost,
        "moves_attempted": result.moves_attempted,
        "moves_accepted": result.moves_accepted,
        "temperature_steps": result.temperature_steps,
        "sites": {
            str(bid): [s.x, s.y, s.kind, s.subtile]
            for bid, s in result.placement.block_site.items()
        },
    }


def _placement_from_payload(payload: Dict) -> PlacementResult:
    from ..fpga.architecture import Site

    placement = Placement(
        {
            int(bid): Site(x=v[0], y=v[1], kind=v[2], subtile=v[3])
            for bid, v in payload["sites"].items()
        }
    )
    return PlacementResult(
        placement=placement,
        cost=int(payload["cost"]),
        initial_cost=int(payload["initial_cost"]),
        moves_attempted=int(payload["moves_attempted"]),
        moves_accepted=int(payload["moves_accepted"]),
        temperature_steps=int(payload["temperature_steps"]),
    )


def placement_sweep(
    netlist: PhysicalNetlist,
    arch: FPGAArchitecture,
    seeds: Sequence[int],
    effort: float = 1.0,
    inner_num: float = 1.0,
    kernel: str = "batched",
    workers: Optional[int] = None,
    cache: Optional[PaRCache] = None,
    events: Optional[List[Dict[str, Any]]] = None,
) -> List[PlacementResult]:
    """Anneal ``netlist`` once per seed, in parallel, with on-disk memoization.

    Returns one :class:`PlacementResult` per seed, in ``seeds`` order.  Each
    (netlist, arch, seed, effort, kernel) combination is placed at most once
    per cache directory; repeated sweeps (quality baselines, benchmark
    harness re-runs) are served from disk.

    A worker that crashes or raises does not lose the sweep: its seeds are
    resubmitted *serially* in the parent process (recorded as
    ``pool-failure`` + ``serial-resubmit`` events), and annealing is
    deterministic per seed, so the recovered sweep equals a ``workers=1``
    run.
    """
    if cache is None:
        cache = PaRCache.from_env()
    results: Dict[int, PlacementResult] = {}
    todo: List[int] = []
    keys: Dict[int, str] = {}
    for seed in seeds:
        if cache is not None:
            keys[seed] = PaRCache.place_key(netlist, arch, seed, effort, inner_num, kernel)
            hit = cache.get(keys[seed], events=events)
            if hit is not None:
                results[seed] = _placement_from_payload(hit)
                continue
        todo.append(seed)

    tasks = [(netlist, arch, seed, effort, inner_num, kernel) for seed in todo]
    outcomes: List[Tuple[int, Dict]] = []
    failed: List[Tuple] = []
    if workers and workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            futures = [(pool.submit(_place_seed_task, task), task) for task in tasks]
            for future, task in futures:
                try:
                    outcomes.append(future.result())
                except Exception as exc:
                    # Worker crash (BrokenProcessPool), injected fault, or a
                    # genuine placement error: defer to the serial pass.  A
                    # deterministic error reproduces there, now with a
                    # usable traceback in the parent.
                    record_event(events, "pool-failure", site="sweep.place",
                                 seed=task[2],
                                 error=f"{type(exc).__name__}: {exc}")
                    failed.append(task)
    else:
        failed = tasks
    for task in failed:
        outcomes.append(_place_seed_task(task))
    if failed and failed is not tasks:
        record_event(events, "serial-resubmit", site="sweep.place",
                     seeds=[t[2] for t in failed])
    for seed, payload in outcomes:
        results[seed] = _placement_from_payload(payload)
        if cache is not None:
            cache.put(keys.get(seed) or PaRCache.place_key(
                netlist, arch, seed, effort, inner_num, kernel
            ), payload, events=events)

    return [results[seed] for seed in seeds]


def best_placement(results: Sequence[PlacementResult]) -> PlacementResult:
    """The lowest-HPWL result of a sweep (ties -> first in sequence order)."""
    if not results:
        raise ValueError("empty placement sweep")
    return min(results, key=lambda r: r.cost)

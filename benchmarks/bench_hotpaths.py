"""Hot-path kernel benchmark: simulation, placement, routing.

Times the CAD hot paths on fixed seeds, comparing the reworked kernels
against the seed ("reference") implementations that are kept behind the same
APIs, and writes a machine-readable ``BENCH_hotpaths.json`` at the repo root
so future PRs have a perf trajectory.

Run with::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py

The workload is the paper's conventional Processing Element (reduced FloPoCo
format by default; ``REPRO_FULL=1`` switches to the paper's 6/26 format and
skips the slowest reference baselines so the nightly run stays bounded).

Three comparisons are made:

* **simulation** -- compiled engine vs legacy interpreter, bit-identical;
* **placement** -- the production ``batched`` kernel (PCG64 block
  randomness + O(1) window moves) vs the ``reference`` oracle at *matched
  quality*: the batched effort is chosen so its mean HPWL across the seed
  sweep is within the quality band of ``reference`` on the same seeds, and
  the speedup is reported at that iso-quality point.  Every cost is checked
  to be the exact-int HPWL of its placement, recomputed from scratch.  The
  routing, route-only timing, resilience, native and obs sections run on
  the seed-0 ``reference`` (oracle) placement, which the default flow does
  not produce; it keeps their numbers comparable with earlier baselines;
* **routing** -- the vectorized delta-stepping ``wavefront`` kernel (PR 3;
  opt-in since the crossover data below) and the directed incremental
  ``astar`` kernel (PR 2, the ``auto`` default) vs the PR 1
  ``fast`` kernel, all at the same routable channel width.  The benchmark
  first finds the minimum routable width for the placement (the W=12
  default of the reduced format is *not* routable -- routing it only
  measured non-convergence), records it as ``channel_width_used``, and
  checks both re-baselined kernels' route quality against the reference
  route (``wavefront`` carries the tighter 1.02x band from its issue);
* **timing** -- the PR 4 criticality-driven objective at the same minimum
  routable width: routed ``critical_path_ns`` + ``logic_depth`` of the
  default (wirelength) flow vs ``objective="timing"`` both route-only (same
  placement) and flow-level (timing-driven placement), plus the measured
  cost of one criticality update per PathFinder iteration.  Since PR 5 the
  flow-level placement is the *incremental-STA* placer (per-connection
  criticality re-timed inside the annealing loop); the PR 4 candidate-
  anneal recipe is timed next to it and the critical-path ratio is gated
  (the incremental placer must match or beat it).  Gated by
  ``check_quality.py``: the timing run must converge, must not regress
  delay, and must stay inside the wirelength band of the reference route on
  its own placement;
* **retime** -- the PR 5 flat route forest vs the PR 4 per-net dict walk:
  routed-delay extraction and the per-PathFinder-iteration criticality
  update, measured dict vs flat both in the steady state (no nets
  re-routed since the last update; the fragment cache serves every net)
  and with 5% of the nets freshly re-routed.  Bit-identity of the
  extracted delays and criticality vectors is asserted and gated;
* **auto_crossover** -- re-measures the ``kernel="auto"`` astar/wavefront
  crossover on synthetic large RR graphs (k tiled copies of the bench PE,
  quick-annealed, routed by both kernels).  PR 5's measurement found no
  crossover (astar ahead at every size), which retired the guessed
  ``WAVEFRONT_AUTO_MIN_NODES`` promotion: ``auto`` is now a fixed alias
  for astar (``AUTO_KERNEL``) and this section keeps backing that with
  data, now including the native-astar column;
* **native** -- the PR 7 compiled-C kernels (astar expansion loop, batched
  annealer move loop; see ``src/repro/native/``) vs their pure-Python
  twins, warm, same seeds.  Bit-identity of routes and annealing
  trajectories is asserted and gated -- the native backend must be a pure
  accelerator, never a different algorithm;
* **reconfig** -- the PR 8 multi-context scheduler (``src/repro/reconfig``;
  see RECONFIGURATION.md): a seeded synthetic context library over the
  bench grid's configuration layout is replayed against a Zipf-skewed
  request trace under a 30% residency budget, and *every* switch's
  diff-applied active plane is checked bit-identical to a full
  reconfiguration of the target -- the identity ``check_quality.py`` gates
  -- alongside contexts/sec, amortized switch cost, hit rate and the
  full-vs-diff frame savings;
* **obs** -- the PR 9 observability layer (``src/repro/obs``; see
  OBSERVABILITY.md): the disabled ``span()`` per-call cost, the traced
  slowdown of the place+route workload (both gated by
  ``check_quality.py``), bit-identity of traced vs untraced results, and a
  Chrome-trace artifact (``BENCH_trace.json``) from the traced run.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _bench_config import BENCH_FP_FORMAT, FULL_MODE

import numpy as np

from repro.core.pe import ProcessingElementSpec, build_pe_design
from repro.fpga.architecture import auto_size
from repro.fpga.device import build_device
from repro.netlist.engine import compile_circuit
from repro.netlist.simulate import (
    random_patterns,
    simulate_patterns,
    simulate_patterns_reference,
)
from repro.par.cache import PaRCache
from repro.par.flow import timing_driven_placement
from repro.par.metrics import minimum_channel_width
from repro.par.netlist import PhysicalNetlist, from_mapped_network
from repro.par.placement import hpwl, place
from repro.par.routing import NetRoute, route
from repro.synth.optimize import optimize
from repro.techmap import map_conventional
from repro.timing import analyze, routed_edge_delays
from repro.timing.sta import CriticalityTracker

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_hotpaths.json"

SIM_PATTERNS = 1024
SIM_REPEATS = 20
SIM_REF_REPEATS = 5
PLACE_SEEDS = [0, 1, 2, 3, 4]
PLACE_EFFORT = 0.25          #: effort of the reference kernel
BATCHED_EFFORT = 0.1         #: iso-quality effort of the batched kernel
PLACE_QUALITY_BAND = 1.02    #: batched mean HPWL must be <= band * reference
ROUTE_QUALITY_BAND = 1.05    #: astar wirelength must be <= band * reference
WAVEFRONT_QUALITY_BAND = 1.02  #: wavefront wirelength must be <= band * reference
ROUTE_SPEEDUP_FLOOR = 2.5    #: recorded astar-vs-fast floor (typical 2.5-3.4x)
WAVEFRONT_SPEEDUP_FLOOR = 2.0  #: recorded wavefront-vs-astar target (see issue 3)
PLACE_SPEEDUP_FLOOR = 1.5    #: recorded batched-vs-reference iso-quality floor
CHANNEL_WIDTH = 12           #: starting point of the routable-width search
TIMING_DELAY_TARGET = 0.90   #: recorded flow-level delay-ratio target (>=10% better)
TIMING_WL_BAND = 1.02        #: timing route wirelength vs reference, same placement
RETIME_SPEEDUP_FLOOR = 3.0   #: flat-vs-dict steady-state retime target (issue 5)
RETIME_REROUTED_FRACTION = 20  #: 1-in-N nets re-routed in the perturbed retime case
CROSSOVER_TILES = [1, 2] if not FULL_MODE else [1, 2, 4]
CROSSOVER_CHANNEL_WIDTH = 18  #: roomy enough that every tiling converges fast
NATIVE_ASTAR_SPEEDUP_FLOOR = 3.0   #: recorded native-vs-python astar target (issue 7)
NATIVE_ANNEAL_SPEEDUP_FLOOR = 5.0  #: recorded native-vs-python move-loop target (22.8x measured)
RECONFIG_CONTEXTS = 24       #: synthetic contexts in the scheduler bench
RECONFIG_TRACE_LENGTH = 2000  #: requests replayed against the scheduler
RECONFIG_BUDGET_FRACTION = 0.3  #: context-memory budget / library footprint
OBS_DISABLED_NS_CEILING = 2000.0  #: disabled span() cost bound, ns/call
OBS_SLOWDOWN_CEILING = 1.05  #: traced route+place wall-time ratio bound
TRACE_PATH = Path(__file__).resolve().parent.parent / "BENCH_trace.json"


def _build_workload():
    spec = ProcessingElementSpec(fmt=BENCH_FP_FORMAT, num_inputs=2, counter_width=4)
    circuit, _ = optimize(build_pe_design(spec).circuit)
    network = map_conventional(circuit)
    netlist = from_mapped_network(network)
    arch = auto_size(
        netlist.num_logic_blocks() + netlist.num_ff_blocks(),
        netlist.num_io_blocks(),
        channel_width=CHANNEL_WIDTH,
    )
    return circuit, network, netlist, arch


def _timed(fn, repeats=1):
    """Best-of-N wall time (interleaved noise on shared CI boxes is real)."""
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return result, best


@contextmanager
def _python_kernels():
    """Force the pure-Python twins (``REPRO_NATIVE=0``) inside the block."""
    prev = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = "0"
    try:
        yield
    finally:
        if prev is None:
            del os.environ["REPRO_NATIVE"]
        else:
            os.environ["REPRO_NATIVE"] = prev


def bench_simulation(circuit):
    patterns = random_patterns(circuit, SIM_PATTERNS)
    compile_circuit(circuit)  # compile outside the timed region (one-time cost)
    simulate_patterns(circuit, patterns, SIM_PATTERNS)  # warm the codegen path

    t0 = time.perf_counter()
    for _ in range(SIM_REPEATS):
        fast = simulate_patterns(circuit, patterns, SIM_PATTERNS)
    fast_s = (time.perf_counter() - t0) / SIM_REPEATS

    t0 = time.perf_counter()
    for _ in range(SIM_REF_REPEATS):
        ref = simulate_patterns_reference(circuit, patterns, SIM_PATTERNS)
    ref_s = (time.perf_counter() - t0) / SIM_REF_REPEATS

    node_evals = len(circuit.ops) * SIM_PATTERNS
    return {
        "workload": f"PE circuit, {len(circuit.ops)} nodes x {SIM_PATTERNS} patterns",
        "reference_seconds": ref_s,
        "fast_seconds": fast_s,
        "speedup": ref_s / fast_s,
        "ops_per_sec_reference": node_evals / ref_s,
        "ops_per_sec_fast": node_evals / fast_s,
        "identical_outputs": ref == fast,
        "ok": ref == fast,
    }


def bench_placement(netlist, arch):
    ref_results, ref_times = [], []
    bat_results, bat_times = [], []
    for seed in PLACE_SEEDS:
        r, dt = _timed(
            lambda s=seed: place(netlist, arch, seed=s, effort=PLACE_EFFORT,
                                 kernel="reference")
        )
        ref_results.append(r)
        ref_times.append(dt)
        r, dt = _timed(
            lambda s=seed: place(netlist, arch, seed=s, effort=BATCHED_EFFORT,
                                 kernel="batched")
        )
        bat_results.append(r)
        bat_times.append(dt)

    exact_ints = all(
        isinstance(r.cost, int) and r.cost == hpwl(netlist, r.placement)
        for r in [*ref_results, *bat_results]
    )
    ref_hpwl = [r.cost for r in ref_results]
    bat_hpwl = [r.cost for r in bat_results]
    hpwl_ratio = statistics.mean(bat_hpwl) / statistics.mean(ref_hpwl)
    batched_speedup = sum(ref_times) / sum(bat_times)
    quality_ok = hpwl_ratio <= PLACE_QUALITY_BAND

    return {
        "workload": (
            f"{len(netlist.blocks)} blocks / {len(netlist.nets)} nets on "
            f"{arch.width}x{arch.height}, seeds={PLACE_SEEDS}, "
            f"effort={PLACE_EFFORT} (batched iso-quality at {BATCHED_EFFORT})"
        ),
        "exact_int_hpwl": exact_ints,
        "batched": {
            "effort": BATCHED_EFFORT,
            "seconds_per_seed": bat_times,
            "reference_seconds_per_seed": ref_times,
            "speedup_vs_reference": batched_speedup,
            "hpwl_per_seed": bat_hpwl,
            "reference_hpwl_per_seed": ref_hpwl,
            "mean_hpwl_ratio": hpwl_ratio,
            "quality_band": PLACE_QUALITY_BAND,
            "quality_ok": quality_ok,
        },
        # The exit-code gate is correctness/quality only; wall-clock floors
        # are recorded but machine-load dependent (see check_quality.py).
        "speedup_floor_met": batched_speedup >= PLACE_SPEEDUP_FLOOR,
        "ok": exact_ints and quality_ok,
    }, ref_results[0].placement


def bench_routing(netlist, arch, placement):
    # The default benchmark width is not necessarily routable (at the reduced
    # format's W=12 every kernel ends congested); find the minimum routable
    # width for this placement and benchmark every kernel there.  The search
    # probes with the scalar astar kernel (see minimum_channel_width: probes
    # below the minimum are non-convergent by construction, which is the
    # scalar kernel's fast case and the vectorized kernel's slow one); the
    # wavefront kernel's convergence at the found width is gated below.
    workers = os.cpu_count() or 1
    min_cw = minimum_channel_width(
        netlist, placement, arch,
        low=max(2, CHANNEL_WIDTH - 4), high=CHANNEL_WIDTH * 2,
        max_router_iterations=15,
        route_kernel="astar",
        workers=min(workers, 4),
        cache=PaRCache.from_env(),
    )
    width = min_cw.min_channel_width
    device = build_device(arch.with_channel_width(width))
    route(netlist, placement, device, kernel="astar", max_iterations=1)  # warm view

    if FULL_MODE:
        ref = None
        ref_s = None
    else:
        ref, ref_s = _timed(lambda: route(netlist, placement, device, kernel="reference"))
    # Interleave the fast/astar/wavefront measurements so drifting machine
    # load hits all kernels alike; keep the best of each.
    fast = astar = wave = None
    fast_s = astar_s = wave_s = None
    for _ in range(3):
        fast_i, dt_f = _timed(lambda: route(netlist, placement, device, kernel="fast"))
        astar_i, dt_a = _timed(lambda: route(netlist, placement, device, kernel="astar"))
        wave_i, dt_w = _timed(
            lambda: route(netlist, placement, device, kernel="wavefront")
        )
        if fast_s is None or dt_f < fast_s:
            fast, fast_s = fast_i, dt_f
        if astar_s is None or dt_a < astar_s:
            astar, astar_s = astar_i, dt_a
        if wave_s is None or dt_w < wave_s:
            wave, wave_s = wave_i, dt_w

    if ref is not None:
        identical = (
            fast.success == ref.success
            and fast.wirelength == ref.wirelength
            and fast.iterations == ref.iterations
            and all(fast.routes[k].nodes == r.nodes for k, r in ref.routes.items())
        )
        wl_baseline = ref.wirelength
    else:
        identical = True  # fast == reference is asserted in the default run
        wl_baseline = fast.wirelength

    wl_ratio = astar.wirelength / wl_baseline
    wave_ratio = wave.wirelength / wl_baseline
    astar_speedup = fast_s / astar_s
    wave_speedup = astar_s / wave_s
    baselines_converged = fast.success and (ref is None or ref.success)
    quality_ok = (
        astar.success and wl_ratio <= ROUTE_QUALITY_BAND
        and wave.success and wave_ratio <= WAVEFRONT_QUALITY_BAND
    )

    entry = {
        "workload": (
            f"{len(netlist.nets)} nets, W={width} (min routable; "
            f"W={CHANNEL_WIDTH} was congested), {device.rr_graph.num_nodes} RR nodes"
        ),
        "channel_width_used": width,
        "min_cw_attempts": {str(w): ok for w, ok in sorted(min_cw.attempts.items())},
        "fast_seconds": fast_s,
        "astar_seconds": astar_s,
        "wavefront_seconds": wave_s,
        "speedup_astar_vs_fast": astar_speedup,
        "speedup_wavefront_vs_astar": wave_speedup,
        "wirelength_fast": fast.wirelength,
        "wirelength_astar": astar.wirelength,
        "wirelength_wavefront": wave.wirelength,
        "astar_wirelength_ratio": wl_ratio,
        "wavefront_wirelength_ratio": wave_ratio,
        "iterations_fast": fast.iterations,
        "iterations_astar": astar.iterations,
        "iterations_wavefront": wave.iterations,
        "success_fast": fast.success,
        "success_astar": astar.success,
        "success_wavefront": wave.success,
        "identical_outputs": identical,
        "quality_band": ROUTE_QUALITY_BAND,
        "wavefront_quality_band": WAVEFRONT_QUALITY_BAND,
        "quality_ok": quality_ok,
        "baselines_converged": baselines_converged,
        "speedup_floor_met": astar_speedup >= ROUTE_SPEEDUP_FLOOR,
        "wavefront_speedup_floor_met": wave_speedup >= WAVEFRONT_SPEEDUP_FLOOR,
        "ok": identical and quality_ok and baselines_converged,
    }
    if ref is not None:
        entry.update(
            {
                "reference_seconds": ref_s,
                "speedup": ref_s / astar_s,
                "wirelength_reference": ref.wirelength,
                "success_reference": ref.success,
            }
        )
    return entry, width


def bench_timing(network, netlist, arch, placement, width):
    """Criticality-driven PAR vs the default flow at the min routable width.

    Measurements at the same channel width:

    * the default flow's route (wirelength objective on the bench
      placement) -- the delay baseline;
    * ``objective="timing"`` route-only on the *same* placement, isolating
      the router's contribution;
    * the full timing flow: the PR 5 *incremental-STA* placer (default
      ``timing_driven_placement`` mode) + timing route -- the headline
      delay-ratio number gated by ``check_quality.py``;
    * PR 4's candidate-anneal placer, timed and routed next to it: the
      incremental placer must reach (or beat) its routed critical path --
      deterministic for the fixed seed, so ``check_quality.py`` gates the
      ratio -- and the wall-time ratio documents the ~x0.4 placement cost
      (recorded, not gated: wall clock is machine-load dependent).

    The timing route's wirelength is banded against the reference-kernel
    route *on the incremental placement* (the router-quality claim), and
    one criticality update is timed to document the per-PathFinder-
    iteration cost of the feedback loop.
    """
    device = build_device(arch.with_channel_width(width))

    base = route(netlist, placement, device, kernel="wavefront")
    a_base = analyze(netlist, base, device, placement=placement)

    t0 = time.perf_counter()
    timed_route = route(
        netlist, placement, device, kernel="wavefront",
        objective="timing", criticality_exponent=2.0,
    )
    route_timing_s = time.perf_counter() - t0
    a_route = analyze(netlist, timed_route, device, placement=placement)

    flow_result, place_timing_s = _timed(
        lambda: timing_driven_placement(
            netlist, arch, seed=PLACE_SEEDS[0], effort=PLACE_EFFORT
        ),
        repeats=2,
    )
    flow_placement = flow_result.placement
    flow_route = route(
        netlist, flow_placement, device, kernel="wavefront",
        objective="timing", criticality_exponent=2.0,
    )
    a_flow = analyze(netlist, flow_route, device, placement=flow_placement)
    ref_on_flow = route(netlist, flow_placement, device, kernel="reference")

    # PR 4's candidate-anneal placer on the same seed: the comparison
    # baseline for the incremental-STA placer's quality/time claims.
    # Both placers are timed best-of-2 (they are deterministic, so only
    # the wall time varies): the time *ratio* is the recorded claim and a
    # single loaded sample on either side would skew it.
    cand_result, place_cand_s = _timed(
        lambda: timing_driven_placement(
            netlist, arch, seed=PLACE_SEEDS[0], effort=PLACE_EFFORT,
            mode="candidates",
        ),
        repeats=2,
    )
    cand_placement = cand_result.placement
    cand_route = route(
        netlist, cand_placement, device, kernel="wavefront",
        objective="timing", criticality_exponent=2.0,
    )
    a_cand = analyze(netlist, cand_route, device, placement=cand_placement)

    # Cost of one criticality update (route-tree walk + two STA scans),
    # paid once per PathFinder iteration in timing mode (the dict-walk
    # baseline; the flat-forest path is benchmarked in bench_retime).
    tracker = CriticalityTracker(netlist, flow_placement, device)
    t0 = time.perf_counter()
    tracker.update(flow_route.routes)
    crit_update_s = time.perf_counter() - t0

    delay_ratio_route = a_route.critical_path_ns / a_base.critical_path_ns
    delay_ratio_flow = a_flow.critical_path_ns / a_base.critical_path_ns
    placer_cp_ratio = a_flow.critical_path_ns / a_cand.critical_path_ns
    placer_time_ratio = place_timing_s / place_cand_s
    wl_band_ratio = flow_route.wirelength / ref_on_flow.wirelength
    converged = (
        base.success and timed_route.success and flow_route.success
        and cand_route.success
    )
    depth_ok = a_base.logic_depth == network.depth()
    ok = (
        converged
        and depth_ok
        and delay_ratio_flow <= 1.0
        and wl_band_ratio <= TIMING_WL_BAND
        and placer_cp_ratio <= 1.0 + 1e-9
    )
    return {
        "workload": (
            f"{len(netlist.nets)} nets at W={width} (min routable), "
            f"STA over {len(netlist.blocks)} blocks"
        ),
        "channel_width_used": width,
        "logic_depth": a_base.logic_depth,
        "logic_depth_matches_network": depth_ok,
        "critical_path_ns_wirelength": a_base.critical_path_ns,
        "critical_path_ns_timing_route": a_route.critical_path_ns,
        "critical_path_ns_timing_flow": a_flow.critical_path_ns,
        "critical_path_ns_candidates_placer": a_cand.critical_path_ns,
        "delay_ratio_route": delay_ratio_route,
        "delay_ratio_flow": delay_ratio_flow,
        "delay_target": TIMING_DELAY_TARGET,
        "delay_target_met": delay_ratio_flow <= TIMING_DELAY_TARGET,
        "placer_cp_ratio": placer_cp_ratio,
        "placer_time_ratio": placer_time_ratio,
        "placer_time_target_met": placer_time_ratio <= 0.5,
        "wirelength_wirelength": base.wirelength,
        "wirelength_timing_route": timed_route.wirelength,
        "wirelength_timing_flow": flow_route.wirelength,
        "wirelength_reference_on_flow_placement": ref_on_flow.wirelength,
        "timing_wl_band": TIMING_WL_BAND,
        "timing_wl_band_ratio": wl_band_ratio,
        "success_wirelength": base.success,
        "success_timing_route": timed_route.success,
        "success_timing_flow": flow_route.success,
        "success_candidates_placer": cand_route.success,
        "iterations_timing_route": timed_route.iterations,
        "iterations_timing_flow": flow_route.iterations,
        "route_timing_seconds": route_timing_s,
        "timing_placement_seconds": place_timing_s,
        "candidates_placement_seconds": place_cand_s,
        "criticality_update_seconds": crit_update_s,
        "ok": ok,
    }, flow_placement, flow_route


def bench_retime(netlist, arch, placement, width):
    """Flat route forest vs the PR 4 dict walk: extraction + retime cost.

    Both sides do the same semantic work -- exact routed delays out of the
    route trees, two STA scans, criticalities folded per connection -- and
    are asserted bit-identical first.  The flat path is measured in the
    steady state (no nets re-routed since the last update: the per-net
    fragment cache serves everything and the assembled forest is reused)
    and with 1-in-``RETIME_REROUTED_FRACTION`` nets freshly re-routed
    (fragments re-flattened + full reassembly), which brackets what a real
    PathFinder iteration pays.  Interleaved best-of-N like the routing
    benches: drifting machine load hits both sides alike.
    """
    device = build_device(arch.with_channel_width(width))
    routing = route(netlist, placement, device, kernel="wavefront")
    tracker = CriticalityTracker(netlist, placement, device, exponent=2.0)

    # -- bit-identity first: flat vs dict must agree to the last bit ------
    flat = tracker.update_flat(routing.routes).copy()
    legacy = tracker.update(routing.routes)
    crit_identical = all(
        flat[tracker.conn_index[key]] == value for key, value in legacy.items()
    ) and all(
        flat[cid] == 0.0
        for key, cid in tracker.conn_index.items()
        if key not in legacy
    )
    graph = tracker.graph
    fallback = tracker._estimate
    d_dict, w_dict, p_dict = routed_edge_delays(
        graph, routing.routes, placement, device, fallback=fallback
    )
    d_flat, w_flat, p_flat = routed_edge_delays(
        graph, routing.routes, placement, device, fallback=fallback,
        forest=routing.forest,
    )
    delays_identical = (
        np.array_equal(d_dict, d_flat)
        and np.array_equal(w_dict, w_flat)
        and np.array_equal(p_dict, p_flat)
    )

    # Perturbed route sets: every call re-flattens a different 5% slice.
    net_ids = sorted(routing.routes)
    rerouted_sets = []
    for k in range(RETIME_REROUTED_FRACTION):
        routes = dict(routing.routes)
        for nid in net_ids[k::RETIME_REROUTED_FRACTION]:
            old = routes[nid]
            routes[nid] = NetRoute(old.net_id, old.nodes, connections=old.connections)
        rerouted_sets.append(routes)

    repeats = 15
    t_dict = t_steady = t_rerouted = None
    t_ext_dict = t_ext_flat = None
    for i in range(repeats):
        _, dt = _timed(lambda: tracker.update(routing.routes))
        t_dict = dt if t_dict is None else min(t_dict, dt)
        _, dt = _timed(lambda: tracker.update_flat(routing.routes))
        t_steady = dt if t_steady is None else min(t_steady, dt)
        routes = rerouted_sets[i % len(rerouted_sets)]
        _, dt = _timed(lambda r=routes: tracker.update_flat(r))
        t_rerouted = dt if t_rerouted is None else min(t_rerouted, dt)
        # The perturbed call left the fragment cache keyed on the perturbed
        # NetRoute objects; re-warm it (untimed) so the next iteration's
        # steady-state sample measures the truly-steady path.
        tracker.update_flat(routing.routes)
        _, dt = _timed(
            lambda: routed_edge_delays(
                graph, routing.routes, placement, device, fallback=fallback
            )
        )
        t_ext_dict = dt if t_ext_dict is None else min(t_ext_dict, dt)
        _, dt = _timed(
            lambda: routed_edge_delays(
                graph, routing.routes, placement, device, fallback=fallback,
                forest=routing.forest,
            )
        )
        t_ext_flat = dt if t_ext_flat is None else min(t_ext_flat, dt)

    steady_speedup = t_dict / t_steady
    rerouted_speedup = t_dict / t_rerouted
    extraction_speedup = t_ext_dict / t_ext_flat
    identical = crit_identical and delays_identical
    return {
        "workload": (
            f"{len(netlist.nets)} nets / {routing.wirelength} wires routed at "
            f"W={width}; {tracker.num_connections} connections, "
            f"{graph.num_edges} timing edges"
        ),
        "extraction_dict_seconds": t_ext_dict,
        "extraction_flat_seconds": t_ext_flat,
        "extraction_speedup": extraction_speedup,
        "retime_dict_seconds": t_dict,
        "retime_flat_steady_seconds": t_steady,
        "retime_flat_rerouted_seconds": t_rerouted,
        "retime_speedup": steady_speedup,
        "retime_speedup_rerouted": rerouted_speedup,
        "rerouted_fraction": 1.0 / RETIME_REROUTED_FRACTION,
        "speedup_floor": RETIME_SPEEDUP_FLOOR,
        "speedup_floor_met": steady_speedup >= RETIME_SPEEDUP_FLOOR,
        "criticality_identical": crit_identical,
        "delays_identical": delays_identical,
        "ok": identical and steady_speedup >= RETIME_SPEEDUP_FLOOR,
    }


def bench_resilience(netlist, arch, placement, width):
    """The resilient execution path must be free when nothing fails.

    Two claims are measured and gated (see RESILIENCE.md):

    * a fault-free ``route_resilient`` call returns the *bit-identical*
      result of a plain ``route`` call -- same wirelength, same iteration
      count, same per-net node lists -- with an empty recovery-event log
      (``check_quality.py`` fails the build on any degradation event);
    * the disabled injection hook ``repro.util.inject`` is cheap enough
      for hot loops: one module-global load + a ``None`` compare, measured
      here in ns/call next to a dict-lookup baseline for scale.

    The section runs under ``fault_plan(None)`` so a stray ambient
    ``REPRO_FAULT_PLAN`` in the environment cannot turn the fault-free
    measurement into a chaos run.
    """
    from repro.par.routing import route_resilient
    from repro.util import count_events, fault_plan, inject

    with fault_plan(None):
        device = build_device(arch.with_channel_width(width))
        base, base_s = _timed(
            lambda: route(netlist, placement, device, kernel="wavefront")
        )
        events = []
        res, res_s = _timed(
            lambda: route_resilient(
                netlist, placement, device, kernel="wavefront", events=events
            )
        )
        identical = (
            res.success == base.success
            and res.wirelength == base.wirelength
            and res.iterations == base.iterations
            and all(res.routes[k].nodes == r.nodes for k, r in base.routes.items())
        )
        zero_events = len(events) == 0
        degradations = count_events(events, "degraded-kernel")

        # ns/call of the disabled hook, best of 3 sweeps.
        calls = 200_000
        inject_ns = None
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(calls):
                inject("bench.site")
            dt = (time.perf_counter() - t0) / calls * 1e9
            inject_ns = dt if inject_ns is None else min(inject_ns, dt)

    return {
        "workload": (
            f"{len(netlist.nets)} nets at W={width}: route_resilient vs route, "
            f"disabled inject() x{calls}"
        ),
        "route_seconds": base_s,
        "route_resilient_seconds": res_s,
        "overhead_ratio": res_s / base_s if base_s else 1.0,
        "inject_disabled_ns_per_call": inject_ns,
        "identical_outputs": identical,
        "recovery_events": len(events),
        "degradation_events": degradations,
        "ok": identical and zero_events,
    }


def _tiled_netlist(base, k):
    """k disjoint copies of ``base`` as one netlist (synthetic scale-up)."""
    nl = PhysicalNetlist(f"{base.name}x{k}")
    for i in range(k):
        remap = {}
        for b in base.blocks:
            remap[b.id] = nl.add_block(f"{b.name}@{i}", b.kind)
        for net in base.nets:
            nl.add_net(f"{net.name}@{i}", remap[net.driver], [remap[s] for s in net.sinks])
    nl.validate()
    return nl


def bench_auto_crossover(netlist):
    """Re-measure the ``kernel="auto"`` astar/wavefront (non-)crossover.

    PR 4 guessed ``WAVEFRONT_AUTO_MIN_NODES = 120_000``; PR 5 measured it
    and found no crossover (astar ahead at every size), which retired the
    constant -- ``auto`` is now a fixed alias for astar (``AUTO_KERNEL``).
    This section keeps backing that with data: k tiled copies of the bench
    PE netlist (realistically local nets -- a random placement would starve
    the wavefront kernel's disjoint-box admission and measure the wrong
    thing) are quick-annealed and routed by both directed kernels on the
    growing RR graphs, the pure-Python astar next to the native-astar
    column (the shipped default, which only widens astar's lead), and the
    crossover is fitted from the measured python-astar time ratios
    (log-log linear).  ``crossed_in_range`` going True would mean the
    fixed alias is wrong -- ``auto_kernel_consistent`` flips and
    ``check_quality.py`` fails.
    """
    points = []
    for k in CROSSOVER_TILES:
        nl = _tiled_netlist(netlist, k) if k > 1 else netlist
        arch = auto_size(
            nl.num_logic_blocks() + nl.num_ff_blocks(), nl.num_io_blocks(),
            channel_width=CROSSOVER_CHANNEL_WIDTH,
        )
        device = build_device(arch)
        placement = place(nl, arch, seed=0, effort=0.1, kernel="batched").placement
        device.rr_graph.search_view()  # build the view outside the timed region
        with _python_kernels():
            astar_r, astar_s = _timed(
                lambda: route(nl, placement, device, kernel="astar")
            )
        nat_r, nat_s = _timed(lambda: route(nl, placement, device, kernel="astar"))
        wave_r, wave_s = _timed(lambda: route(nl, placement, device, kernel="wavefront"))
        points.append(
            {
                "tiles": k,
                "num_nodes": device.rr_graph.num_nodes,
                "num_nets": len(nl.nets),
                "astar_seconds": astar_s,
                "native_astar_seconds": nat_s,
                "wavefront_seconds": wave_s,
                "astar_over_wavefront": astar_s / wave_s,
                "native_over_wavefront": nat_s / wave_s,
                "success_astar": astar_r.success,
                "success_native": nat_r.success,
                "success_wavefront": wave_r.success,
                "native_matches_astar": (
                    nat_r.wirelength == astar_r.wirelength
                    and nat_r.iterations == astar_r.iterations
                ),
            }
        )

    fitted = None
    crossed = False
    usable = [p for p in points if p["success_astar"] and p["success_wavefront"]]
    if len(usable) >= 2:
        x = np.log([p["num_nodes"] for p in usable])
        y = np.log([p["astar_over_wavefront"] for p in usable])
        slope, intercept = np.polyfit(x, y, 1)
        crossed = any(p["astar_over_wavefront"] >= 1.0 for p in usable)
        if slope > 1e-9:
            fitted = float(np.exp(-intercept / slope))
    from repro.par.routing import AUTO_KERNEL

    return {
        "workload": (
            f"tiled bench PE x{CROSSOVER_TILES} at W={CROSSOVER_CHANNEL_WIDTH}, "
            "python-astar / native-astar vs wavefront route time"
        ),
        "points": points,
        "crossed_in_range": crossed,
        "fitted_crossover_nodes": fitted,
        "auto_kernel": AUTO_KERNEL,
        # The fixed alias is right as long as astar actually wins (ratio
        # < 1) at every usable point; the native backend only widens it.
        "auto_kernel_consistent": (
            AUTO_KERNEL == "astar"
            and all(p["astar_over_wavefront"] < 1.0 for p in usable)
        ),
        "ok": all(
            p["success_astar"] and p["success_wavefront"] and p["success_native"]
            and p["native_matches_astar"]
            for p in points
        ),
    }


def bench_native(netlist, arch, placement, width):
    """Native C kernels vs their pure-Python twins: warm speed + bit-identity.

    Both backends run warm (the search view and the compiled ``.so`` exist
    before the timed region) on the routing section's placement and channel
    width; the annealer comparison re-runs the batched placement kernel
    across the bench seeds.  Identity is literal: same route node lists,
    same placements, same exact-int costs and counters -- the compiled
    kernels are twins, not approximations.
    """
    from repro.native import status as native_status

    st = native_status()
    available = bool(st.get("astar")) and bool(st.get("annealer"))
    if not available:
        # No compiler on PATH or REPRO_NATIVE=0: the Python kernels are the
        # backend and there is nothing to compare.  Graceful absence is
        # covered by tests/test_native.py, not gated here.
        return {
            "workload": "native backend unavailable",
            "available": False,
            "build": st,
            "ok": True,
        }

    device = build_device(arch.with_channel_width(width))
    route(netlist, placement, device, kernel="astar", max_iterations=1)  # warm

    nat_route = py_route = None
    nat_s = py_s = None
    for _ in range(3):
        nat_i, dt_n = _timed(lambda: route(netlist, placement, device, kernel="astar"))
        with _python_kernels():
            py_i, dt_p = _timed(
                lambda: route(netlist, placement, device, kernel="astar")
            )
        if nat_s is None or dt_n < nat_s:
            nat_route, nat_s = nat_i, dt_n
        if py_s is None or dt_p < py_s:
            py_route, py_s = py_i, dt_p

    astar_identical = (
        nat_route.success == py_route.success
        and nat_route.wirelength == py_route.wirelength
        and nat_route.iterations == py_route.iterations
        and all(
            nat_route.routes[k].nodes == r.nodes
            for k, r in py_route.routes.items()
        )
    )
    # The timing objective exercises the lookahead's delay term; identity
    # must hold there too (not separately timed -- the expansion loop is
    # the same code path).
    t_nat = route(netlist, placement, device, kernel="astar", objective="timing")
    with _python_kernels():
        t_py = route(netlist, placement, device, kernel="astar", objective="timing")
    astar_timing_identical = (
        t_nat.wirelength == t_py.wirelength
        and all(t_nat.routes[k].nodes == r.nodes for k, r in t_py.routes.items())
    )

    def _place_all():
        return [
            place(netlist, arch, seed=s, effort=PLACE_EFFORT, kernel="batched")
            for s in PLACE_SEEDS
        ]

    _place_all()  # warm (first call pays the one-time ctypes binding setup)
    nat_places, anneal_nat_s = _timed(_place_all)
    with _python_kernels():
        py_places, anneal_py_s = _timed(_place_all)
    anneal_identical = all(
        a.cost == b.cost
        and a.moves_attempted == b.moves_attempted
        and a.moves_accepted == b.moves_accepted
        and a.temperature_steps == b.temperature_steps
        and {k: v.as_tuple() for k, v in a.placement.block_site.items()}
        == {k: v.as_tuple() for k, v in b.placement.block_site.items()}
        for a, b in zip(nat_places, py_places)
    )

    astar_speedup = py_s / nat_s
    anneal_speedup = anneal_py_s / anneal_nat_s
    identical = astar_identical and astar_timing_identical and anneal_identical
    return {
        "workload": (
            f"{len(netlist.nets)} nets, W={width}, "
            f"{device.rr_graph.num_nodes} RR nodes; anneal seeds {PLACE_SEEDS} "
            f"at effort {PLACE_EFFORT}"
        ),
        "available": True,
        "build": st,
        "astar_python_seconds": py_s,
        "astar_native_seconds": nat_s,
        "astar_speedup": astar_speedup,
        "astar_identical": astar_identical,
        "astar_timing_identical": astar_timing_identical,
        "anneal_python_seconds": anneal_py_s,
        "anneal_native_seconds": anneal_nat_s,
        "anneal_speedup": anneal_speedup,
        "anneal_identical": anneal_identical,
        "astar_speedup_floor": NATIVE_ASTAR_SPEEDUP_FLOOR,
        "anneal_speedup_floor": NATIVE_ANNEAL_SPEEDUP_FLOOR,
        "astar_speedup_floor_met": astar_speedup >= NATIVE_ASTAR_SPEEDUP_FLOOR,
        "anneal_speedup_floor_met": anneal_speedup >= NATIVE_ANNEAL_SPEEDUP_FLOOR,
        "ok": identical and astar_speedup >= 1.0 and anneal_speedup >= 1.0,
    }


def bench_reconfig(arch):
    """Multi-context scheduler: diff-switch identity + serving throughput.

    A seeded synthetic library over the bench grid's configuration layout
    (a shared base configuration, each context re-programming a random
    quarter of the logic tiles -- the structure micro-reconfiguration
    exploits) is replayed against a Zipf-skewed trace under a
    ``RECONFIG_BUDGET_FRACTION`` residency budget.  The gated invariant is
    bit-identity: after *every* diff switch the active plane must equal the
    target's full frame image.  Throughput numbers (contexts/sec, amortized
    switch cost) come from the modelled MiCAP frame costs; the scheduler's
    own Python overhead is recorded as wall time per request.
    """
    from repro.fpga.bitstream import Bitstream
    from repro.reconfig import (
        ContextLibrary,
        ReconfigScheduler,
        popularity_weights,
        replay,
        synthetic_trace,
    )

    device = build_device(arch)
    layout = device.config_layout
    clbs = [
        (x, y)
        for x in range(arch.width)
        for y in range(arch.height)
        if arch.contains_clb(x, y)
    ]
    rng = np.random.Generator(np.random.PCG64(2024))
    lut_mask = (1 << layout.lut_bits) - 1
    base = {site: int(rng.integers(1, lut_mask + 1)) for site in clbs}

    library = ContextLibrary(layout)
    weights = popularity_weights(RECONFIG_CONTEXTS, skew=1.2)
    for i in range(RECONFIG_CONTEXTS):
        bitstream = Bitstream(layout)
        for (x, y), bits in base.items():
            bitstream.set_lut_config(x, y, bits)
        for idx in rng.choice(len(clbs), size=max(1, len(clbs) // 4), replace=False):
            x, y = clbs[int(idx)]
            bitstream.set_lut_config(x, y, int(rng.integers(1, lut_mask + 1)))
        library.add_bitstream(f"ctx{i}", bitstream, criticality=float(weights[i]))

    total = library.total_frames()
    budget = max(1, int(total * RECONFIG_BUDGET_FRACTION))
    trace = synthetic_trace(
        library.names(), RECONFIG_TRACE_LENGTH, seed=1, skew=1.2, repeat=0.25
    )

    # Identity pass: every diff-applied switch must land bit-identical to a
    # full reconfiguration of the target.  This is the gated claim.
    scheduler = ReconfigScheduler(library, budget_frames=budget)
    diff_identical = all(
        scheduler.switch_to(name) is not None
        and scheduler.active_image == library[name].image
        for name in trace
    )

    report, wall_s = _timed(
        lambda: replay(ReconfigScheduler(library, budget_frames=budget), trace),
        repeats=3,
    )

    return {
        "workload": (
            f"{RECONFIG_CONTEXTS} contexts x {total} frames on "
            f"{arch.width}x{arch.height} ({len(clbs)} logic tiles), "
            f"{RECONFIG_TRACE_LENGTH}-request Zipf trace, budget {budget} frames"
        ),
        "num_contexts": RECONFIG_CONTEXTS,
        "library_frames": total,
        "budget_frames": budget,
        "requests": report.requests,
        "hit_rate": report.hit_rate,
        "contexts_per_sec": report.contexts_per_sec,
        "amortized_switch_ms": report.amortized_switch_ms,
        "frame_savings": report.frame_savings,
        "evictions": report.evictions,
        "rejected_admissions": report.rejected_admissions,
        "scheduler_wall_seconds": wall_s,
        "wall_us_per_request": wall_s / report.requests * 1e6,
        "diff_identical": diff_identical,
        "ok": diff_identical and report.hit_rate > 0.0 and report.frame_savings > 0.0,
    }


def bench_obs(netlist, arch, placement, width):
    """Observability overhead: disabled span cost + traced-run slowdown.

    Two gated claims (see OBSERVABILITY.md): with tracing *disabled* a
    ``span()`` call is one global load plus a ``None`` compare, measured
    here in ns/call; with tracing *enabled* the same place+route workload
    slows down by at most ``OBS_SLOWDOWN_CEILING`` (min-of-N on both sides,
    interleaved so machine-load drift hits them alike), produces
    bit-identical results, and leaves a valid Chrome ``trace_event`` file
    at ``BENCH_trace.json`` (loadable in chrome://tracing / Perfetto;
    uploaded as a CI artifact).
    """
    from repro.obs.trace import clear as obs_clear
    from repro.obs.trace import span, tracing

    device = build_device(arch.with_channel_width(width))
    route(netlist, placement, device, kernel="astar", max_iterations=1)  # warm view

    obs_clear()  # measure the disabled fast path, not an inherited tracer
    n = 200_000
    t0 = time.perf_counter_ns()
    for _ in range(n):
        with span("bench.obs"):
            pass
    disabled_ns = (time.perf_counter_ns() - t0) / n

    def workload():
        placed = place(netlist, arch, seed=0, effort=PLACE_EFFORT)
        routed = route(netlist, placement, device, kernel="astar")
        return placed, routed

    off = on = None
    off_s = on_s = None
    for _ in range(3):
        off_i, dt_off = _timed(workload)
        with tracing(str(TRACE_PATH)):
            on_i, dt_on = _timed(workload)
        if off_s is None or dt_off < off_s:
            off, off_s = off_i, dt_off
        if on_s is None or dt_on < on_s:
            on, on_s = on_i, dt_on

    slowdown = on_s / off_s
    identical = (
        on[0].cost == off[0].cost
        and on[0].placement.block_site == off[0].placement.block_site
        and on[1].wirelength == off[1].wirelength
        and all(on[1].routes[k].nodes == r.nodes for k, r in off[1].routes.items())
    )

    trace_events = []
    try:
        trace_events = json.loads(TRACE_PATH.read_text())
        trace_valid = isinstance(trace_events, list)
    except (OSError, json.JSONDecodeError):
        trace_valid = False
    names = {e.get("name") for e in trace_events} if trace_valid else set()
    trace_complete = {"par.place", "par.route", "route.overuse", "place.cost"} <= names

    telemetry = on[1].telemetry or {}
    return {
        "workload": (
            f"place(effort={PLACE_EFFORT}) + astar route of {len(netlist.nets)} "
            f"nets at W={width}, traced vs untraced, min-of-3 interleaved"
        ),
        "disabled_ns_per_call": disabled_ns,
        "disabled_ns_ceiling": OBS_DISABLED_NS_CEILING,
        "untraced_seconds": off_s,
        "traced_seconds": on_s,
        "traced_slowdown": slowdown,
        "slowdown_ceiling": OBS_SLOWDOWN_CEILING,
        "identical_outputs": identical,
        "trace_path": str(TRACE_PATH),
        "trace_events": len(trace_events),
        "chrome_trace_valid": trace_valid,
        "trace_complete": trace_complete,
        "route_iterations_in_telemetry": len(
            telemetry.get("overuse_per_iteration", ())
        ),
        "ok": (
            disabled_ns <= OBS_DISABLED_NS_CEILING
            and slowdown <= OBS_SLOWDOWN_CEILING
            and identical
            and trace_valid
            and trace_complete
        ),
    }


def main() -> int:
    circuit, network, netlist, arch = _build_workload()

    print("benchmarking simulation kernel ...")
    sim = bench_simulation(circuit)
    print("benchmarking placement kernels ...")
    placement_result, placement = bench_placement(netlist, arch)
    print("benchmarking routing kernels ...")
    routing_result, width = bench_routing(netlist, arch, placement)
    print("benchmarking timing-driven PAR ...")
    timing_result, flow_placement, _flow_route = bench_timing(
        network, netlist, arch, placement, width
    )
    print("benchmarking flat-forest retime ...")
    retime_result = bench_retime(netlist, arch, flow_placement, width)
    print("benchmarking resilient execution path ...")
    resilience_result = bench_resilience(netlist, arch, placement, width)
    print("benchmarking auto-kernel crossover ...")
    crossover_result = bench_auto_crossover(netlist)
    print("benchmarking native kernels ...")
    native_result = bench_native(netlist, arch, placement, width)
    print("benchmarking multi-context reconfiguration ...")
    reconfig_result = bench_reconfig(arch)
    print("benchmarking observability overhead ...")
    obs_result = bench_obs(netlist, arch, placement, width)

    report = {
        "config": {
            "fp_format": {"we": BENCH_FP_FORMAT.we, "wf": BENCH_FP_FORMAT.wf},
            "full_mode": FULL_MODE,
            "sim_patterns": SIM_PATTERNS,
            "place_seeds": PLACE_SEEDS,
            "place_effort": PLACE_EFFORT,
            "batched_effort": BATCHED_EFFORT,
            "channel_width_start": CHANNEL_WIDTH,
            "python": platform.python_version(),
        },
        "kernels": {
            "simulation": sim,
            "placement": placement_result,
            "routing": routing_result,
            "timing": timing_result,
            "retime": retime_result,
            "resilience": resilience_result,
            "auto_crossover": crossover_result,
            "native": native_result,
            "reconfig": reconfig_result,
            "obs": obs_result,
        },
    }
    # Sections owned by satellite benches (e.g. bench_service_throughput's
    # kernels.service) are carried over, so re-running this bench never
    # erases a gate another bench wrote.
    carried = set()
    if RESULT_PATH.exists():
        try:
            previous = json.loads(RESULT_PATH.read_text()).get("kernels", {})
        except ValueError:
            previous = {}
        for name, section in previous.items():
            if name not in report["kernels"]:
                report["kernels"][name] = section
                carried.add(name)
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    ok = True
    for name, entry in report["kernels"].items():
        if name in carried:
            print(f"{name:11s} ...  carried over (re-run its own bench to refresh)")
            continue
        flag = "OK " if entry["ok"] else "FAIL"
        ok = ok and entry["ok"]
        if name == "routing":
            print(
                f"{name:11s} {flag} wavefront={entry['wavefront_seconds'] * 1000:8.1f}ms "
                f"astar={entry['astar_seconds'] * 1000:8.1f}ms "
                f"fast={entry['fast_seconds'] * 1000:8.1f}ms "
                f"wf_vs_astar={entry['speedup_wavefront_vs_astar']:5.2f}x "
                f"wf_wl_ratio={entry['wavefront_wirelength_ratio']:.4f} "
                f"W={entry['channel_width_used']}"
            )
        elif name == "timing":
            print(
                f"{name:11s} {flag} cp {entry['critical_path_ns_wirelength']:6.1f}ns -> "
                f"route {entry['critical_path_ns_timing_route']:6.1f}ns / "
                f"flow {entry['critical_path_ns_timing_flow']:6.1f}ns "
                f"(ratio {entry['delay_ratio_flow']:.3f}, "
                f"wl_band {entry['timing_wl_band_ratio']:.4f}; placer vs "
                f"candidates cp {entry['placer_cp_ratio']:.3f}x at "
                f"{entry['placer_time_ratio']:.2f}x time)"
            )
        elif name == "retime":
            print(
                f"{name:11s} {flag} dict {entry['retime_dict_seconds'] * 1000:6.2f}ms -> "
                f"flat {entry['retime_flat_steady_seconds'] * 1000:5.2f}ms steady / "
                f"{entry['retime_flat_rerouted_seconds'] * 1000:5.2f}ms rerouted "
                f"({entry['retime_speedup']:.2f}x / {entry['retime_speedup_rerouted']:.2f}x, "
                f"extract {entry['extraction_speedup']:.2f}x, "
                f"identical={entry['criticality_identical'] and entry['delays_identical']})"
            )
        elif name == "resilience":
            print(
                f"{name:11s} {flag} route {entry['route_seconds'] * 1000:7.1f}ms vs "
                f"resilient {entry['route_resilient_seconds'] * 1000:7.1f}ms "
                f"(x{entry['overhead_ratio']:.3f}), disabled inject "
                f"{entry['inject_disabled_ns_per_call']:.0f}ns/call, "
                f"events={entry['recovery_events']}"
            )
        elif name == "auto_crossover":
            pts = " ".join(
                f"{p['num_nodes'] // 1000}k:{p['astar_over_wavefront']:.2f}"
                f"/{p['native_over_wavefront']:.2f}"
                for p in entry["points"]
            )
            print(
                f"{name:11s} {flag} py/native-astar over wavefront [{pts}] "
                f"crossed={entry['crossed_in_range']} "
                f"auto={entry['auto_kernel']}"
            )
        elif name == "native":
            if not entry.get("available"):
                print(f"{name:11s} {flag} {entry['workload']}")
            else:
                print(
                    f"{name:11s} {flag} astar py "
                    f"{entry['astar_python_seconds'] * 1000:7.1f}ms -> native "
                    f"{entry['astar_native_seconds'] * 1000:6.1f}ms "
                    f"({entry['astar_speedup']:.2f}x); anneal py "
                    f"{entry['anneal_python_seconds'] * 1000:7.1f}ms -> native "
                    f"{entry['anneal_native_seconds'] * 1000:6.1f}ms "
                    f"({entry['anneal_speedup']:.2f}x); identical="
                    f"{entry['astar_identical'] and entry['anneal_identical']}"
                )
        elif name == "reconfig":
            print(
                f"{name:11s} {flag} {entry['contexts_per_sec']:6.0f} ctx/s "
                f"({entry['amortized_switch_ms']:.3f}ms/switch modelled, "
                f"{entry['wall_us_per_request']:.0f}us/req wall), "
                f"hit_rate={entry['hit_rate']:.2f} "
                f"frame_savings={entry['frame_savings']:.2f} "
                f"identical={entry['diff_identical']}"
            )
        elif name == "obs":
            print(
                f"{name:11s} {flag} disabled span "
                f"{entry['disabled_ns_per_call']:.0f}ns/call, traced slowdown "
                f"x{entry['traced_slowdown']:.3f} "
                f"(untraced {entry['untraced_seconds'] * 1000:.1f}ms), "
                f"identical={entry['identical_outputs']} "
                f"trace={entry['trace_events']}ev valid={entry['chrome_trace_valid']}"
            )
        elif name == "placement":
            b = entry["batched"]
            print(
                f"{name:11s} {flag} batched {b['speedup_vs_reference']:5.2f}x "
                f"vs reference at hpwl_ratio={b['mean_hpwl_ratio']:.4f}"
            )
        else:
            print(
                f"{name:11s} {flag} speedup={entry['speedup']:6.2f}x  "
                f"ref={entry['reference_seconds'] * 1000:8.1f}ms  "
                f"fast={entry['fast_seconds'] * 1000:8.1f}ms"
            )
    print(f"wrote {RESULT_PATH}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

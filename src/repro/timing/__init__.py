"""Static timing analysis over placed-and-routed physical netlists.

The subsystem has three layers:

* :mod:`repro.timing.graph` -- the levelized timing graph: one timing node
  per physical block, one timing edge per routed connection (net driver ->
  net sink), all stored as flat NumPy arrays grouped by topological level so
  the arrival/required scans run as a handful of vector operations per
  level.
* :mod:`repro.timing.delays` -- connection-delay extraction: exact per-sink
  delays (and wire/switch/pin element counts) out of the flat route forest
  (:class:`repro.par.forest.RouteForest`) against the architecture's
  per-resource delay model (:func:`repro.fpga.routing_graph.rr_delay_ns`),
  with the placement-distance estimate for pre-route timing and for
  connections without a routed path.
* :mod:`repro.timing.sta` -- the engine: arrival / required / slack /
  per-connection criticality, full critical-path extraction with a
  per-element (LUT / wire / switch / pin) breakdown, and the
  :class:`~repro.timing.sta.CriticalityTracker` that feeds criticalities
  back into the timing-driven router objective each PathFinder iteration.

:func:`analyze` is the one-call entry point the PAR flow uses; every routed
delay, final or per-iteration, goes through the same forest scan.
"""

# repro.par.flow imports this package's modules, which import repro.par's
# submodules: load repro.par first so either import order resolves.
from .. import par as _par  # noqa: F401
from .delays import (
    estimated_edge_delays,
    estimated_edge_delays_from_coords,
    routed_edge_delays,
)
from .graph import TimingGraph, build_timing_graph
from .sta import (
    CriticalityTracker,
    CriticalPathElement,
    TimingAnalysis,
    analyze,
    scan_edge_criticality,
)

__all__ = [
    "TimingGraph",
    "build_timing_graph",
    "routed_edge_delays",
    "estimated_edge_delays",
    "estimated_edge_delays_from_coords",
    "TimingAnalysis",
    "CriticalPathElement",
    "CriticalityTracker",
    "analyze",
    "scan_edge_criticality",
]

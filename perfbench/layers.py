"""Per-layer attribution for the Table-I flow benchmark.

:class:`LayerTracer` wraps the public functions each flow layer exposes, at
the module attributes the drivers look them up under, and records one span
per call.  Nothing inside ``repro`` changes: :meth:`LayerTracer.install`
swaps the attributes and :meth:`LayerTracer.uninstall` puts the originals
back.

A layer's self time is the duration of its spans minus the time covered by
their child spans, so a nested call (the ``place`` inside
``timing_driven_placement``, the probe routes inside
``minimum_channel_width``) is counted once.  The self times of all spans sum
to the time covered by the outermost spans; whatever the flow driver does
between them is the ``unattributed`` remainder.

Work counts come from the wrapped functions' return values.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Hook = Callable[[Dict[str, float], tuple, dict, Any], None]

LAYERS = ("synth", "techmap", "netlist", "device", "place", "route", "mincw", "sta")


def _count_luts(counts, args, kwargs, network):
    counts["techmap.luts"] += network.num_luts()


def _count_device(counts, args, kwargs, device):
    counts["device.calls"] += 1
    counts["device.rr_nodes"] += device.rr_graph.num_nodes


def _count_place(counts, args, kwargs, result):
    counts["place.calls"] += 1
    counts["place.moves"] += result.moves_attempted
    counts["place.accepted"] += result.moves_accepted
    counts["place.hpwl"] += result.cost


def _count_route_call(counts, args, kwargs, result):
    # place_and_route hands each route_resilient call a fresh events list,
    # so every degradation event in it belongs to this call.
    events = kwargs.get("events") or []
    counts["route.calls"] += 1
    counts["route.converged"] += bool(result.success)
    counts["route.overused"] += result.overused_nodes
    counts["route.degraded"] += sum(1 for e in events if e.get("event") == "degraded-kernel")


def _count_route_attempt(counts, args, kwargs, result):
    counts["route.iters"] += result.iterations
    counts["route.nodes_expanded"] += (result.telemetry or {}).get("nodes_expanded", 0)


def _count_sta(counts, args, kwargs, result):
    counts["sta.calls"] += 1


def _count_mincw(counts, args, kwargs, result):
    counts["mincw.probes"] += len(result.attempts)
    counts["mincw.probes_converged"] += sum(1 for ok in result.attempts.values() if ok)


#: (module, attribute, layer, hook).  Each entry is the binding a driver
#: calls through; ``repro.par.metrics`` and ``repro.timing.sta`` are wrapped
#: separately because the min-CW probes look their callees up there.  Probe
#: routes belong to the ``mincw`` layer: ``route.*`` describes the flow's
#: own route.
WRAPS: Tuple[Tuple[str, str, str, Optional[Hook]], ...] = (
    ("repro.core.flows", "synthesize", "synth", None),
    ("repro.core.flows", "map_conventional", "techmap", _count_luts),
    ("repro.core.flows", "map_parameterized", "techmap", _count_luts),
    ("repro.par.flow", "from_mapped_network", "netlist", None),
    ("repro.par.flow", "build_device", "device", _count_device),
    ("repro.par.flow", "place", "place", _count_place),
    ("repro.par.flow", "timing_driven_placement", "place", None),
    ("repro.par.flow", "route_resilient", "route", _count_route_call),
    ("repro.par.routing", "route", "route", _count_route_attempt),
    ("repro.par.flow", "analyze", "sta", _count_sta),
    ("repro.par.flow", "report_from_analysis", "sta", None),
    ("repro.par.flow", "minimum_channel_width", "mincw", _count_mincw),
    ("repro.par.metrics", "build_device", "device", _count_device),
    ("repro.par.metrics", "route", "mincw", None),
    ("repro.timing.sta", "analyze", "sta", _count_sta),
)


class LayerTracer:
    """In-memory span recorder over the :data:`WRAPS` bindings."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: (function, layer, start, end, depth) per call, in completion order
        self.spans: List[Tuple[str, str, float, float, int]] = []
        self._stack: List[List[float]] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        for module_name, attr, layer, hook in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", layer, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, layer: str, fn: Callable, hook: Optional[Hook]) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]  # start, time covered by children
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[0]
                self.self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                self.spans.append((name, layer, frame[0], end, len(stack)))
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return wrapper

    def covered_s(self) -> float:
        """Time inside outermost spans; equals the sum of all self times."""
        return sum(end - start for _, _, start, end, depth in self.spans if depth == 0)

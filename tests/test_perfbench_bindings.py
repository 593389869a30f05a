"""The Table-I benchmark's layer bindings must resolve against the library.

``perfbench/layers.py`` attributes flow time to layers by wrapping module
attributes (``WRAPS``).  Moving or renaming a wrapped function would break
the benchmark only when it runs; these tests load the module by path,
unmodified, and fail as soon as a binding stops resolving or the flow stops
calling through it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.netlist.hdl import Design
from repro.synth.optimize import optimize
from repro.techmap import map_conventional

LAYERS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_binding_resolves(layers):
    assert layers.WRAPS
    for module_name, attr, layer, _hook in layers.WRAPS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
        assert layer in layers.LAYERS


def test_flow_calls_through_wrapped_sta_bindings(layers):
    from repro.par.flow import place_and_route

    d = Design("adder")
    s, co = d.adder(d.input_bus("a", 3), d.input_bus("b", 3))
    d.output_bus("s", s)
    d.output_bit("cout", co)
    network = map_conventional(optimize(d.circuit)[0])
    with layers.LayerTracer() as tracer:
        place_and_route(network, placement_effort=0.2)
    called = {name for name, *_ in tracer.spans}
    for binding in (
        "repro.par.flow.analyze",
        "repro.par.flow.report_from_analysis",
        "repro.par.flow.place",
        "repro.par.flow.route_resilient",
    ):
        assert binding in called, binding
    assert tracer.counts["sta.calls"] == 1

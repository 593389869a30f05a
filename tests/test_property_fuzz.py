"""Bounded property-based tests over randomly generated netlists.

An invariant the rest of the suite checks only on hand-built examples is
checked here across a small random family of designs:

* **cache round-trip** -- serializing a routed result through the on-disk
  payload format and re-hydrating it reproduces the fresh computation
  bit-for-bit (wirelength, iterations, route nodes).

The suite is deliberately tiny: ``max_examples`` is capped and the profile
is derandomized, so tier-1 wall time stays flat and failures replay
deterministically in CI.  Skips cleanly when Hypothesis is not installed.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.fpga.architecture import auto_size  # noqa: E402
from repro.fpga.device import build_device  # noqa: E402
from repro.par import PaRCache, PhysicalNetlist, cached_route  # noqa: E402
from repro.par.placement import place  # noqa: E402
from repro.par.routing import route  # noqa: E402

pytestmark = pytest.mark.fuzz

BOUNDED = settings(
    max_examples=12,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_netlist(n_blocks, driver_picks, fanout_picks):
    """A small random DAG netlist driven by the given Hypothesis draws.

    Block ``i`` is driven by some earlier block (``driver_picks[i]`` modulo
    the candidates), giving a connected acyclic design; a subset of blocks
    additionally fans out to the output IO so sink counts vary.
    """
    nl = PhysicalNetlist("fuzz")
    src = nl.add_block("pi", "io")
    blocks = [src]
    for i in range(n_blocks):
        blk = nl.add_block(f"l{i}", "clb")
        driver = blocks[driver_picks[i] % len(blocks)]
        nl.add_net(f"n{i}", driver, [blk])
        blocks.append(blk)
    out = nl.add_block("po", "io")
    sinks = [b for i, b in enumerate(blocks[1:]) if fanout_picks[i]] or [blocks[-1]]
    nl.add_net("out", blocks[-1], [s for s in sinks if s != blocks[-1]] + [out])
    nl.validate()
    return nl


netlists = st.integers(min_value=2, max_value=7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(min_value=0, max_value=63), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
    )
)


def _placed(params, channel_width=8):
    n, drivers, fanouts = params
    nl = random_netlist(n, drivers, fanouts)
    arch = auto_size(
        nl.num_logic_blocks() + nl.num_ff_blocks(),
        nl.num_io_blocks(),
        channel_width=channel_width,
    )
    placement = place(nl, arch, seed=0, effort=0.3).placement
    return nl, placement, build_device(arch)


@BOUNDED
@given(params=netlists)
def test_cache_round_trip_equals_fresh_compute(params, tmp_path_factory):
    nl, placement, device = _placed(params)
    cache = PaRCache(tmp_path_factory.mktemp("fuzz-cache"))
    fresh = cached_route(nl, placement, device, cache=cache)
    rehydrated = cached_route(nl, placement, device, cache=cache)
    assert rehydrated.success == fresh.success
    assert rehydrated.wirelength == fresh.wirelength
    assert rehydrated.kernel == fresh.kernel
    # Re-hydration rebuilds each net's node list from the route forest, so
    # node *order* may differ from the kernel's emission order; the set of
    # occupied nodes per net must be identical.
    assert {n: sorted(r.nodes) for n, r in rehydrated.routes.items()} == {
        n: sorted(r.nodes) for n, r in fresh.routes.items()
    }
    if fresh.success and fresh.forest is not None:
        # A cacheable route (converged, forest-carrying) must be served
        # from disk the second time, not recomputed.
        assert cache.stats()["hits"] == 1
        assert rehydrated.iterations == fresh.iterations
        assert rehydrated.forest is not None
        rehydrated.forest.validate()


# ---------------------------------------------------------------------------
# Frame-image delta algebra on fuzzed designs
# ---------------------------------------------------------------------------

from repro.fpga.bitstream import Bitstream  # noqa: E402
from repro.reconfig.context import _MIX  # noqa: E402
from repro.reconfig.frames import (  # noqa: E402
    apply_delta,
    diff_images,
    union_frames,
)


def _routing_image(routing, device):
    """Frame image of one routing outcome (the context-renderer convention).

    Mirrors the routing half of ``render_context_bitstream`` for raw
    physical netlists (which carry no mapped LUT functions): every wire RR
    node inside the logic region sets bit ``(node * MIX) % routing_bits``
    of its tile's routing budget.
    """
    layout = device.config_layout
    rr = device.rr_graph
    bitstream = Bitstream(layout)
    tile_bits = {}
    for net_route in routing.routes.values():
        for rr_node in net_route.nodes:
            if not rr.is_wire(rr_node):
                continue
            x, y = int(rr.node_x[rr_node]), int(rr.node_y[rr_node])
            if not layout.arch.contains_clb(x, y):
                continue
            bit = (rr_node * _MIX) % layout.routing_bits
            tile_bits[(x, y)] = tile_bits.get((x, y), 0) | (1 << bit)
    for (x, y), bits in tile_bits.items():
        bitstream.set_routing_config(x, y, bits)
    return bitstream.frame_image()


@BOUNDED
@given(params=netlists)
def test_frame_delta_round_trip_on_fuzzed_designs(params):
    """``apply_delta(a, diff_images(a, b)) == b`` for real rendered images.

    The reconfiguration scheduler and the service's bitstream digests both
    lean on this algebra; here it is checked on frame images grown from
    fuzzer netlists (two placements of the same design = two contexts),
    not hand-picked dicts.
    """
    nl, placement, device = _placed(params)
    base = _routing_image(route(nl, placement, device), device)
    other = place(nl, device.arch, seed=1, effort=0.3).placement
    target = _routing_image(route(nl, other, device), device)

    # The delta is an exact patch, in both directions.
    assert apply_delta(base, diff_images(base, target)) == target
    assert apply_delta(target, diff_images(target, base)) == base
    # Canonical images never store all-zero frames, so patched images
    # stay canonical: no zero values survive an apply.
    assert all(apply_delta(base, diff_images(base, target)).values())
    # Self-delta is empty; the diff never writes more than the full path.
    assert diff_images(base, base).writes == ()
    assert apply_delta(base, diff_images(base, base)) == base
    assert diff_images(base, target).num_frames <= union_frames(base, target)

"""Device bundle: architecture + routing-resource graph + configuration layout."""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.trace import span
from .architecture import FPGAArchitecture, auto_size
from .bitstream import ConfigurationLayout
from .routing_graph import RRGraph, build_rr_graph

__all__ = ["Device", "build_device", "device_for_netlist"]


@dataclass
class Device:
    """A ready-to-use FPGA device model."""

    arch: FPGAArchitecture
    rr_graph: RRGraph
    config_layout: ConfigurationLayout

    @property
    def num_clb_sites(self) -> int:
        return self.arch.num_clb_sites

    @property
    def num_io_sites(self) -> int:
        return self.arch.num_io_sites

    def describe(self) -> str:
        return (
            f"{self.arch.describe()}; RR graph: {self.rr_graph.num_nodes} nodes / "
            f"{self.rr_graph.num_edges} switches; "
            f"{self.config_layout.total_frames} configuration frames"
        )


def build_device(arch: FPGAArchitecture) -> Device:
    """Build the routing graph and configuration layout for an architecture."""
    with span(
        "fpga.build_device", side=f"{arch.width}x{arch.height}", W=arch.channel_width
    ) as s:
        rr_graph = build_rr_graph(arch)
        s.annotate(rr_nodes=rr_graph.num_nodes)
        return Device(
            arch=arch,
            rr_graph=rr_graph,
            config_layout=ConfigurationLayout(arch),
        )


def device_for_netlist(
    num_luts: int,
    num_ios: int,
    channel_width: int = 10,
    utilization: float = 0.8,
) -> Device:
    """Auto-size an island FPGA for a design and build its device model."""
    arch = auto_size(num_luts, num_ios, channel_width=channel_width, utilization=utilization)
    return build_device(arch)

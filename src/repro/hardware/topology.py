"""Cluster topology: nodes made of devices, clusters made of nodes.

A :class:`NodeSpec` corresponds to one PICASSO-Executor's machine: CPUs,
GPUs, DRAM, and the intra-node interconnects.  A :class:`ClusterSpec`
is a homogeneous collection of nodes joined by a network link.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

from repro.hardware.specs import (
    CpuSpec,
    GpuSpec,
    LinkSpec,
    MemorySpec,
    CPU_XEON_8163,
    CPU_XEON_8269CY,
    DDR4_DRAM,
    GPU_V100_SXM2,
    GPU_V100S_PCIE,
    NET_RDMA_100G,
    NET_TCP_32G,
    NVLINK_V100,
    PCIE_GEN3_X16,
    gib,
)


@dataclass(frozen=True)
class NodeSpec:
    """One machine in the training cluster.

    :param gpus_per_node: number of accelerator cards.
    :param nvlink: intra-node GPU-GPU link, or ``None`` when the cards
        are only reachable over PCIe (e.g. single-GPU EFLOPS nodes).
    """

    name: str
    cpu: CpuSpec
    gpu: GpuSpec
    gpus_per_node: int
    dram: MemorySpec
    pcie: LinkSpec
    nvlink: LinkSpec | None
    network: LinkSpec

    @property
    def has_nvlink(self) -> bool:
        """Whether GPU peers in this node communicate over NVLink."""
        return self.nvlink is not None and self.gpus_per_node > 1


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of :class:`NodeSpec` machines.

    ``num_nodes`` counts machines; the total number of workers (one per
    GPU) is :attr:`num_workers`.
    """

    name: str
    node: NodeSpec
    num_nodes: int

    def __post_init__(self) -> None:
        if (not isinstance(self.num_nodes, numbers.Integral)
                or self.num_nodes < 1):
            raise ValueError(
                f"num_nodes must be an integer >= 1, got {self.num_nodes!r}")

    @property
    def num_workers(self) -> int:
        """Total GPU workers across the cluster."""
        return self.num_nodes * self.node.gpus_per_node

    def with_nodes(self, num_nodes: int) -> "ClusterSpec":
        """Return a copy of this cluster scaled to ``num_nodes``."""
        return replace(self, num_nodes=num_nodes)


GN6E_NODE = NodeSpec(
    name="AliCloud Gn6e",
    cpu=CPU_XEON_8163,
    gpu=GPU_V100_SXM2,
    gpus_per_node=8,
    dram=replace(DDR4_DRAM, capacity_bytes=gib(724)),
    pcie=PCIE_GEN3_X16,
    nvlink=NVLINK_V100,
    network=NET_TCP_32G,
)

EFLOPS_NODE = NodeSpec(
    name="EFLOPS",
    cpu=CPU_XEON_8269CY,
    gpu=GPU_V100S_PCIE,
    gpus_per_node=1,
    dram=DDR4_DRAM,
    pcie=PCIE_GEN3_X16,
    nvlink=None,
    network=NET_RDMA_100G,
)


def gn6e_cluster(num_nodes: int = 1) -> ClusterSpec:
    """Public-cloud benchmark testbed from Tab. I (8x V100 per node)."""
    return ClusterSpec(name="Gn6e", node=GN6E_NODE, num_nodes=num_nodes)


def eflops_cluster(num_nodes: int = 16) -> ClusterSpec:
    """On-premise system-design testbed from Tab. I (1x V100 per node)."""
    return ClusterSpec(name="EFLOPS", node=EFLOPS_NODE, num_nodes=num_nodes)

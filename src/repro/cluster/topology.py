"""Cluster topology: compute nodes plus one remote memory node.

Mirrors the paper's distributed-memoization deployment (Figure 6): ``N``
compute nodes (four A100s each on Polaris) run ADMM-FFT; a single memory
node hosts the index and value databases; everything shares the Slingshot
fabric.  The class materializes one :class:`~repro.cluster.des.Resource`
per hardware engine so experiment builders can schedule against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .des import Resource, Timeline
from .devices import POLARIS, NodeSpec

__all__ = ["ClusterModel"]


@dataclass
class GPUHandle:
    """Resource bundle of one GPU: its compute stream and its PCIe DMA engine."""

    node: int
    index: int
    compute: Resource
    pcie: Resource


class ClusterModel:
    """Resources for ``n_gpus`` spread over Polaris-style nodes + memory node.

    Engine model (capacity = parallel channels):

    - each GPU: 1 compute stream + 1 dedicated PCIe4 x16 DMA engine,
    - each compute node: 1 NIC resource with 2 channels (dual Slingshot),
      1 CPU resource with 4 channels (multithreaded host work), 1 SSD
      resource with 2 channels (two local NVMe),
    - the memory node: a NIC (2 channels) — the contention point all
      compute nodes share — and an index-search engine (4 channels,
      multithreaded batched lookups).
    """

    def __init__(
        self,
        timeline: Timeline,
        n_gpus: int = 1,
        spec: NodeSpec = POLARIS,
        with_memory_node: bool = True,
        n_index_shards: int = 1,
    ) -> None:
        if n_gpus < 1:
            raise ValueError(f"n_gpus must be >= 1, got {n_gpus}")
        if n_index_shards < 1:
            raise ValueError(f"n_index_shards must be >= 1, got {n_index_shards}")
        self.timeline = timeline
        self.spec = spec
        self.n_gpus = n_gpus
        self.n_nodes = math.ceil(n_gpus / spec.n_gpus)
        self.gpus: list[GPUHandle] = []
        for g in range(n_gpus):
            node = g // spec.n_gpus
            self.gpus.append(
                GPUHandle(
                    node=node,
                    index=g,
                    compute=timeline.resource(f"node{node}/gpu{g}"),
                    pcie=timeline.resource(f"node{node}/gpu{g}/pcie"),
                )
            )
        self.node_nics = [
            timeline.resource(f"node{i}/nic", capacity=2) for i in range(self.n_nodes)
        ]
        self.node_cpus = [
            timeline.resource(f"node{i}/cpu", capacity=4) for i in range(self.n_nodes)
        ]
        self.node_ssds = [
            timeline.resource(f"node{i}/ssd", capacity=spec.n_ssds)
            for i in range(self.n_nodes)
        ]
        self.memory_nic: Resource | None = None
        self.memory_index: Resource | None = None
        self.memory_index_shards: list[Resource] = []
        if with_memory_node:
            # single injection NIC: the shared bottleneck Figures 15-16 probe
            self.memory_nic = timeline.resource("memnode/nic", capacity=1)
            # the index database sharded over independent service engines
            # (one engine when unsharded — the paper's single memory node);
            # shard 0 keeps the historical resource name
            self.memory_index_shards = [
                timeline.resource(
                    "memnode/index" if s == 0 else f"memnode/index/{s}", capacity=4
                )
                for s in range(n_index_shards)
            ]
            self.memory_index = self.memory_index_shards[0]

    def index_shard(self, shard: int) -> Resource:
        return self.memory_index_shards[shard]

    def nic_of(self, gpu: GPUHandle) -> Resource:
        return self.node_nics[gpu.node]

    def cpu_of(self, gpu: GPUHandle) -> Resource:
        return self.node_cpus[gpu.node]

    def crosses_node(self, a: GPUHandle, b: GPUHandle) -> bool:
        return a.node != b.node

"""Discrete-event simulation of a multi-node GPU cluster.

This package is the hardware substrate that replaces the paper's physical
testbed.  It models the pieces of the CUDA execution model that matter for
collective deadlocks and collective performance:

* GPUs with a bounded number of resident blocks (mutual exclusion over SMs),
* CUDA streams with in-order launch semantics,
* explicit (``device_synchronize``) GPU synchronization,
* an alpha/beta interconnect cost model with PIX / SYS / RDMA domains,
* host threads that drive the GPUs like a rank process would.

Everything runs under a conservative smallest-clock-first event engine which
also performs deadlock detection over the wait-for graph.
"""

from repro.gpusim.engine import Actor, Engine, StepResult, StepStatus
from repro.gpusim.device import GpuDevice, KernelActor, SmInterferenceModel
from repro.gpusim.cluster import (
    Cluster,
    ClusterSpec,
    NodeSpec,
    build_cluster,
    fat_tree_spec,
    multi_node_spec,
)
from repro.gpusim.host import HostProgram, HostThread
from repro.gpusim.interconnect import Interconnect, LinkSpec, TopologySpec
from repro.gpusim.stream import Stream

__all__ = [
    "Actor",
    "Cluster",
    "ClusterSpec",
    "Engine",
    "GpuDevice",
    "HostProgram",
    "HostThread",
    "Interconnect",
    "KernelActor",
    "LinkSpec",
    "NodeSpec",
    "SmInterferenceModel",
    "StepResult",
    "StepStatus",
    "Stream",
    "TopologySpec",
    "build_cluster",
    "fat_tree_spec",
    "multi_node_spec",
]

"""Cluster construction: nodes, GPUs, interconnect, host threads.

`build_cluster` assembles the two testbeds used throughout the paper's
evaluation (the 3080ti-server and the 3090-server, each with eight GPUs split
over two PIX domains, plus the four-server 32-GPU RDMA cluster of Fig. 8(c)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.common.types import DeviceId
from repro.gpusim.device import GpuDevice
from repro.gpusim.engine import Engine
from repro.gpusim.host import HostThread
from repro.gpusim.interconnect import Interconnect, TopologySpec


@dataclass(frozen=True)
class NodeSpec:
    """One server in the cluster."""

    name: str
    num_gpus: int = 8


@dataclass
class ClusterSpec:
    """A whole cluster; order of ``nodes`` defines node indices.

    ``topology`` is the fabric description (PIX domains, NVLink islands,
    fat-tree oversubscription); the default is the flat PIX/SYS/RDMA fabric
    of the paper's testbeds.
    """

    nodes: list = field(default_factory=list)
    topology: TopologySpec = field(default_factory=TopologySpec)


#: Paper testbeds (Table 2).
SERVER_3080TI = NodeSpec(name="3080ti-server", num_gpus=8)
SERVER_3090 = NodeSpec(name="3090-server", num_gpus=8)


def single_server_spec(kind="3090", num_gpus=8):
    """Spec for one eight-GPU server of the given model."""
    base = SERVER_3090 if kind == "3090" else SERVER_3080TI
    return ClusterSpec(nodes=[NodeSpec(base.name, num_gpus)])


def dual_server_spec(kind="3090", num_gpus_per_node=8):
    """Two identical servers connected by RDMA (Figs. 12(c,d), 13(b))."""
    base = SERVER_3090 if kind == "3090" else SERVER_3080TI
    return ClusterSpec(
        nodes=[
            NodeSpec(f"{base.name}-{i}", num_gpus_per_node)
            for i in range(2)
        ]
    )


def mixed_32gpu_spec():
    """The 2×3080ti + 2×3090 32-GPU cluster used for Fig. 8(c)."""
    nodes = [NodeSpec(f"3080ti-server-{i}", 8) for i in range(2)]
    nodes += [NodeSpec(f"3090-server-{i}", 8) for i in range(2)]
    return ClusterSpec(nodes=nodes)


def dual_server_nvlink_spec(num_gpus_per_node=8, nvlink_domain_size=4):
    """Two NVLink-equipped servers: 4-GPU NVLink islands inside PIX domains."""
    spec = dual_server_spec("3090", num_gpus_per_node)
    spec.topology = TopologySpec(nvlink_domain_size=nvlink_domain_size)
    return spec


def fat_tree_32gpu_spec(oversubscription=2.0):
    """The 32-GPU cluster behind a 2:1 oversubscribed RDMA fat-tree."""
    spec = mixed_32gpu_spec()
    spec.topology = TopologySpec(rdma_oversubscription=oversubscription)
    return spec


def multi_node_spec(num_gpus, gpus_per_node=8):
    """A homogeneous N-GPU cluster built from identical servers."""
    if num_gpus < 1:
        raise ConfigurationError(f"a cluster needs at least 1 GPU, got {num_gpus}")
    if gpus_per_node < 1 or num_gpus % gpus_per_node:
        raise ConfigurationError(
            f"num_gpus {num_gpus} must be a positive multiple of "
            f"gpus_per_node {gpus_per_node}"
        )
    return ClusterSpec(nodes=[
        NodeSpec(f"3090-server-{i}", gpus_per_node)
        for i in range(num_gpus // gpus_per_node)
    ])


def fat_tree_spec(num_gpus, gpus_per_node=8, nodes_per_pod=4,
                  oversubscription=2.0, spine_oversubscription=2.0,
                  nvlink_domain_size=0):
    """An N-GPU cluster behind a (possibly two-level) RDMA fat-tree.

    Nodes are grouped ``nodes_per_pod`` per leaf switch; with more than one
    pod the spec becomes a genuine two-level fat-tree whose cross-pod traffic
    pays the spine's extra hop and oversubscription.  NVLink stays disabled
    by default, matching every other testbed (only ``dual-3090-nvlink`` has
    islands), so scaling sweeps across ``fat-tree-<N>`` points vary only the
    fabric size — pass ``nvlink_domain_size=4`` for NVLink-equipped nodes.
    This is the batched construction path used to instantiate the
    256/512-rank scale testbeds: one spec, one engine, devices registered in
    a single batch.
    """
    spec = multi_node_spec(num_gpus, gpus_per_node)
    num_nodes = len(spec.nodes)
    two_level = nodes_per_pod > 0 and num_nodes > nodes_per_pod
    spec.topology = TopologySpec(
        nvlink_domain_size=nvlink_domain_size,
        rdma_oversubscription=oversubscription,
        nodes_per_pod=nodes_per_pod if two_level else 0,
        spine_oversubscription=spine_oversubscription if two_level else 1.0,
    )
    return spec


class Cluster:
    """A simulated multi-node GPU cluster plus its event engine.

    ``max_resident_blocks`` is every GPU's block-slot capacity, the one place
    it is set.
    """

    def __init__(self, spec, engine=None, max_resident_blocks=32,
                 interference=None):
        if not spec.nodes:
            raise ConfigurationError("a cluster needs at least one node")
        if max_resident_blocks < 1:
            raise ConfigurationError(
                f"max_resident_blocks must be at least 1, "
                f"got {max_resident_blocks}")
        self.spec = spec
        self.engine = engine or Engine()
        self.interconnect = Interconnect(spec.topology)
        self.devices = []
        self._devices_by_id = {}
        self._ranks_by_device = {}
        self.hosts = {}
        #: Objects closed with the cluster (its collective backends).
        self._attached = []
        #: Construction knobs, kept so :meth:`add_node` builds growth nodes
        #: like the original ones.
        self._max_resident_blocks = max_resident_blocks
        self._interference = interference

        for node_index, node in enumerate(spec.nodes):
            self._build_node(node_index, node)
        for device in self.devices:
            self.engine.add_actor(device)

    def _build_node(self, node_index, node, time_us=None):
        """Instantiate one node's devices (without engine registration)."""
        added = []
        for local_rank in range(node.num_gpus):
            device_id = DeviceId(node=node_index, local_rank=local_rank)
            device = GpuDevice(device_id, self._max_resident_blocks,
                               interference=self._interference)
            if time_us is not None:
                device.clock.advance_to(time_us)
            self._ranks_by_device[device] = len(self.devices)
            self.devices.append(device)
            self._devices_by_id[device_id] = device
            added.append(device)
        return added

    # -- lookups --------------------------------------------------------------

    @property
    def world_size(self):
        return len(self.devices)

    def device(self, rank):
        """Return the device with global rank ``rank`` (row-major over nodes)."""
        return self.devices[rank]

    def device_by_id(self, device_id):
        return self._devices_by_id[device_id]

    def rank_of(self, device):
        return self._ranks_by_device[device]

    def failed_devices(self):
        return [device for device in self.devices if device.failed]

    def hosts_for_device(self, device):
        """Host threads (rank processes) bound to one GPU."""
        return [host for host in self.hosts.values() if host.device is device]

    # -- fault injection --------------------------------------------------------

    def fail_rank(self, rank, time_us):
        """Crash one rank: the GPU and every host process driving it die.

        Returns the killed kernel and host actors.  Everything else — peer
        kernels blocked on the dead rank's connectors, pending collectives —
        is deliberately left in place: observing how the rest of the system
        copes is the point of injecting the fault.
        """
        device = self.device(rank)
        killed = device.fail(time_us)
        for host in self.hosts_for_device(device):
            if self.engine.kill_actor(host, time_us):
                killed.append(host)
        return killed

    # -- host threads ----------------------------------------------------------

    def add_host(self, rank, program=None, name=None, start_time_us=None):
        """Create the host thread (rank process) driving GPU ``rank``.

        ``start_time_us`` starts the process mid-simulation (a job placed by
        the multi-tenant scheduler): the host's clock begins at that virtual
        time so none of its work appears to happen in the past.
        """
        device = self.device(rank)
        host_name = name or f"host-{rank}"
        if host_name in self.hosts:
            raise ConfigurationError(f"host {host_name} already exists")
        host = HostThread(host_name, device, self, program=program)
        if start_time_us is not None:
            host.clock.advance_to(start_time_us)
        self.hosts[host_name] = host
        self.engine.add_actor(host)
        return host

    def add_hosts(self, programs):
        """Create one host per rank from a list of programs (index = rank)."""
        return [self.add_host(rank, program) for rank, program in enumerate(programs)]

    # -- elastic growth ----------------------------------------------------------

    def add_node(self, node=None, time_us=None):
        """Append one server to a live cluster (elastic world growth).

        The new node's GPUs take the next global ranks (row-major ordering
        over nodes is preserved, so existing ranks are stable) and join the
        interconnect through the same arithmetic domain derivation as the
        original devices.  ``time_us`` starts the new devices mid-simulation
        so none of their work appears to happen in the past.  Returns the
        added devices.
        """
        if node is None:
            template = self.spec.nodes[-1]
            node = NodeSpec(
                name=f"{template.name}-grow{len(self.spec.nodes)}",
                num_gpus=template.num_gpus,
            )
        node_index = len(self.spec.nodes)
        self.spec.nodes.append(node)
        added = self._build_node(node_index, node, time_us=time_us)
        for device in added:
            self.engine.add_actor(device)
        return added

    # -- running ----------------------------------------------------------------

    @property
    def obs(self):
        """The engine's observability hub (metrics / tracer / recorder)."""
        return self.engine.obs

    def run(self, until_us=None):
        """Run the engine; returns the final virtual time."""
        return self.engine.run(until_us=until_us)

    # -- lifetime ----------------------------------------------------------------

    def attach(self, resource):
        """Close ``resource`` (anything with a ``close()``) with the cluster."""
        self._attached.append(resource)

    def close(self):
        """Break the cluster's reference cycles once its run is over.

        The engine, its actors, the hosts, the attached backends and their
        collectives point at each other, so without this a finished cluster
        stays in memory until the cyclic collector reaches it.  ``close``
        drops those references, never results: statistics, the flight
        recorder, spans, dumps, calibration samples and metric values stay
        readable.  Idempotent; the cluster cannot run again.
        """
        attached, self._attached = self._attached, []
        for resource in attached:
            resource.close()
        for device in self.devices:
            device.close()
        self.hosts.clear()
        self.engine.close()


def build_cluster(
    topology="single-3090",
    deadlock_mode="raise",
    max_resident_blocks=32,
    interference=None,
    observability=None,
):
    """Build one of the named paper testbeds.

    ``topology`` is one of ``single-3090``, ``single-3080ti``, ``dual-3090``,
    ``dual-3090-nvlink``, ``mixed-32``, ``fat-tree-32``, or the generic
    ``fat-tree-<N>`` for any multiple of eight GPUs (``fat-tree-64`` …
    ``fat-tree-512``; more than four nodes become a two-level fat-tree with
    four-node pods); alternatively pass a :class:`ClusterSpec` directly.
    """
    if isinstance(topology, ClusterSpec):
        spec = topology
    elif topology == "single-3090":
        spec = single_server_spec("3090")
    elif topology == "single-3080ti":
        spec = single_server_spec("3080ti")
    elif topology == "dual-3090":
        spec = dual_server_spec("3090")
    elif topology == "dual-3090-nvlink":
        spec = dual_server_nvlink_spec()
    elif topology == "mixed-32":
        spec = mixed_32gpu_spec()
    elif topology == "fat-tree-32":
        spec = fat_tree_32gpu_spec()
    elif isinstance(topology, str) and topology.startswith("fat-tree-"):
        suffix = topology[len("fat-tree-"):]
        if not suffix.isdigit():
            raise ConfigurationError(f"unknown cluster topology {topology!r}")
        spec = fat_tree_spec(int(suffix))
    else:
        raise ConfigurationError(f"unknown cluster topology {topology!r}")
    engine = Engine(deadlock_mode=deadlock_mode, observability=observability)
    return Cluster(spec, engine=engine, max_resident_blocks=max_resident_blocks,
                   interference=interference)

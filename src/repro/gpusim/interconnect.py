"""Interconnect topology and transfer cost model.

The paper's testbeds place GPUs 0-3 and 4-7 of each server in two separate PIX
domains connected through the SYS domain, and connect servers with 56 Gb/s
RDMA.  We model every GPU pair with an alpha/beta link (latency + bandwidth)
selected from the topology, which is sufficient to reproduce the shape of the
bandwidth/latency curves in Fig. 8.

Beyond the flat PIX/SYS model, a :class:`TopologySpec` describes a hierarchical
fabric: NVLink islands inside the PCIe domains of each node, and an RDMA
fat-tree joining the nodes whose uplinks may be oversubscribed.  The
:class:`Interconnect` has one job: resolve the (possibly degraded)
:class:`LinkSpec` between two devices of that fabric.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.types import DeviceId, LinkType

#: Extra per-message latency of a cross-pod hop through the spine (us).
SPINE_ALPHA_EXTRA_US = 2.0


@dataclass(frozen=True)
class TopologySpec:
    """Hierarchical fabric description of one cluster.

    ``pix_group_size`` GPUs share a PCIe PIX domain.  Independently, groups
    of ``nvlink_domain_size`` consecutive GPUs of a node are joined by NVLink
    (0 disables NVLink); an NVLink bridge bypasses the PCIe hierarchy, so an
    island may span PIX domains and NVLink wins when both apply.  Nodes are
    connected by an RDMA fat-tree whose uplinks are
    ``rdma_oversubscription``-to-1 oversubscribed, dividing the effective
    inter-node bandwidth.

    A *two-level* fat-tree additionally groups ``nodes_per_pod`` consecutive
    nodes under one leaf switch (a pod); traffic between pods crosses the
    spine layer, paying ``spine_oversubscription`` further bandwidth division
    and ``SPINE_ALPHA_EXTRA_US`` extra per-message latency (the second switch
    hop).  ``nodes_per_pod=0`` keeps the flat single-level fabric, which is
    what every paper testbed uses; the two-level form is how the simulator
    instantiates 256/512-rank clusters.
    """

    pix_group_size: int = 4
    nvlink_domain_size: int = 0
    rdma_oversubscription: float = 1.0
    nodes_per_pod: int = 0
    spine_oversubscription: float = 1.0

    def validate(self):
        if self.pix_group_size < 1:
            raise ConfigurationError(
                f"pix_group_size must be at least 1, got {self.pix_group_size}"
            )
        if self.nvlink_domain_size < 0:
            raise ConfigurationError(
                f"nvlink_domain_size must be non-negative, got {self.nvlink_domain_size}"
            )
        if self.rdma_oversubscription < 1.0:
            raise ConfigurationError(
                f"rdma_oversubscription must be at least 1, got {self.rdma_oversubscription}"
            )
        if self.nodes_per_pod < 0:
            raise ConfigurationError(
                f"nodes_per_pod must be non-negative, got {self.nodes_per_pod}"
            )
        if self.spine_oversubscription < 1.0:
            raise ConfigurationError(
                f"spine_oversubscription must be at least 1, "
                f"got {self.spine_oversubscription}"
            )
        return self

    @property
    def rdma_beta_gbps(self):
        """Effective per-pair intra-pod inter-node bandwidth."""
        return LinkType.RDMA.beta_gbps / self.rdma_oversubscription

    @property
    def spine_beta_gbps(self):
        """Effective per-pair cross-pod bandwidth (leaf and spine dividers)."""
        return self.rdma_beta_gbps / self.spine_oversubscription

    def pod_of(self, node_index):
        """Pod (leaf-switch) index of a node; every node when single-level."""
        if self.nodes_per_pod <= 0:
            return 0
        return node_index // self.nodes_per_pod


@dataclass(frozen=True)
class LinkSpec:
    """A point-to-point link with explicit alpha/beta parameters."""

    link_type: LinkType
    alpha_us: float
    beta_gbps: float

    @classmethod
    def of(cls, link_type, alpha_us=None, beta_gbps=None):
        return cls(
            link_type=link_type,
            alpha_us=link_type.alpha_us if alpha_us is None else alpha_us,
            beta_gbps=link_type.beta_gbps if beta_gbps is None else beta_gbps,
        )

    def transfer_time_us(self, nbytes):
        """Alpha/beta cost of moving ``nbytes`` across this link."""
        if nbytes <= 0:
            return self.alpha_us
        return self.alpha_us + nbytes / (self.beta_gbps * 1e3)


class Interconnect:
    """Resolves the link connecting any two simulated GPUs."""

    def __init__(self, topology=None):
        self.topology = (TopologySpec() if topology is None else topology).validate()
        #: Active ``(beta_factor, alpha_add_us)`` degradations per device pair.
        self._pair_degradations = {}
        #: Resolved :class:`LinkSpec` per device pair.  Link resolution sits
        #: on the per-primitive hot path (every send consults it), so the
        #: result is cached until a degradation or a restore changes it.
        #: ``link_epoch`` counts those invalidations; downstream caches
        #: (primitive executors) compare it to drop their own derived entries.
        self._link_cache = {}
        self.link_epoch = 0

    def _invalidate_links(self):
        self._link_cache.clear()
        self.link_epoch += 1

    # -- fault injection: degradable links ------------------------------------

    def degrade_link(self, device_a, device_b, beta_factor=1.0, alpha_add_us=0.0):
        """Degrade the link between two devices (bandwidth / latency fault).

        ``beta_factor`` divides the bandwidth, ``alpha_add_us`` is added to
        the per-message latency.  Degradations *stack*: overlapping faults on
        the same link each contribute an entry (worst bandwidth factor wins,
        latencies add), and each ``restore_link`` removes its own entry, so
        one fault ending never cancels another still in progress.  They
        affect transfers started after the call; chunks already pushed keep
        their arrival times.
        """
        if beta_factor < 1.0:
            raise ConfigurationError(
                f"beta_factor must be at least 1, got {beta_factor}"
            )
        if alpha_add_us < 0.0:
            raise ConfigurationError(
                f"alpha_add_us must be non-negative, got {alpha_add_us}"
            )
        self._pair_degradations.setdefault(self._key(device_a, device_b), []).append(
            (float(beta_factor), float(alpha_add_us))
        )
        self._invalidate_links()

    def restore_link(self, device_a, device_b, beta_factor=1.0, alpha_add_us=0.0):
        """Remove the degradation ``degrade_link`` applied with these values.

        Raises :class:`ConfigurationError` when no such entry is active.
        """
        key = self._key(device_a, device_b)
        entries = self._pair_degradations.get(key, [])
        entry = (float(beta_factor), float(alpha_add_us))
        if entry not in entries:
            raise ConfigurationError(
                f"no active degradation {entry} between {device_a} and {device_b}"
            )
        entries.remove(entry)
        if not entries:
            del self._pair_degradations[key]
        self._invalidate_links()

    @staticmethod
    def _key(device_a, device_b):
        a = (device_a.node, device_a.local_rank)
        b = (device_b.node, device_b.local_rank)
        return (a, b) if a <= b else (b, a)

    # -- hierarchical link resolution -----------------------------------------

    def nvlink_domain(self, device):
        """NVLink island index of a device within its node (None when disabled)."""
        if self.topology.nvlink_domain_size <= 0:
            return None
        return device.local_rank // self.topology.nvlink_domain_size

    def pix_domain(self, device):
        return device.local_rank // self.topology.pix_group_size

    def locality(self, device_a, device_b):
        """The :class:`LinkType` class connecting two devices."""
        if device_a == device_b:
            return LinkType.LOOPBACK
        if device_a.node != device_b.node:
            return LinkType.RDMA
        nvl_a, nvl_b = self.nvlink_domain(device_a), self.nvlink_domain(device_b)
        if nvl_a is not None and nvl_a == nvl_b:
            return LinkType.NVLINK
        if self.pix_domain(device_a) == self.pix_domain(device_b):
            return LinkType.SHM_PIX
        return LinkType.SHM_SYS

    def link(self, device_a, device_b):
        """Return the :class:`LinkSpec` connecting ``device_a`` and ``device_b``."""
        if not isinstance(device_a, DeviceId) or not isinstance(device_b, DeviceId):
            raise TypeError("link() expects DeviceId arguments")
        key = self._key(device_a, device_b)
        cached = self._link_cache.get(key)
        if cached is not None:
            return cached
        locality = self.locality(device_a, device_b)
        if locality is LinkType.RDMA:
            topology = self.topology
            if topology.pod_of(device_a.node) != topology.pod_of(device_b.node):
                spec = LinkSpec.of(
                    LinkType.RDMA,
                    alpha_us=LinkType.RDMA.alpha_us + SPINE_ALPHA_EXTRA_US,
                    beta_gbps=topology.spine_beta_gbps,
                )
            else:
                spec = LinkSpec.of(LinkType.RDMA, beta_gbps=topology.rdma_beta_gbps)
        else:
            spec = LinkSpec.of(locality)
        factor, alpha_add = 1.0, 0.0
        for entry_factor, entry_alpha in self._pair_degradations.get(key, ()):
            factor = max(factor, entry_factor)
            alpha_add += entry_alpha
        if factor > 1.0 or alpha_add > 0.0:
            spec = LinkSpec(
                link_type=spec.link_type,
                alpha_us=spec.alpha_us + alpha_add,
                beta_gbps=spec.beta_gbps / factor,
            )
        self._link_cache[key] = spec
        return spec

"""Topology-aware ring/tree/hierarchical algorithm selection.

Mirrors NCCL's tuner: for every registered collective the selector predicts
the alpha/beta cost of each candidate algorithm from the message size, the
group size and the link parameters of the devices actually involved, and picks
the cheapest.  Small messages on large groups are latency-bound and go to
the tree (``O(log n)`` alpha terms); large messages are bandwidth-bound and go
to the ring (bandwidth-optimal ``2(n-1)/n`` byte volume); on multi-node
topologies with enough islands, the two-level hierarchical all-reduce beats
both by confining most steps to fast intra-island links and paying the slow
inter-island alpha only ``2(k-1)`` times for ``k`` islands.

The predicted costs share their structure with the simulator's primitive cost
model — a systolic ring advances at the pace of its slowest link, the
serialized double binary tree pays every byte several times over the
bottleneck link — and the constants are calibrated against the simulated
dual-server testbed, the same way NCCL's tuner bakes in measured hardware
constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.types import CollectiveKind, LinkType
from repro.collectives.cost import DEFAULT_COST_MODEL
from repro.collectives.sequences import (
    ALGORITHM_HIERARCHICAL,
    ALGORITHM_RING,
    ALGORITHM_TREE,
    ALGORITHMS,
    DEFAULT_CHUNK_BYTES,
    HIERARCHICAL_KINDS,
    TREE_KINDS,
    hierarchical_island_size,
)

#: Values accepted by the ``algorithm`` configuration knob.
ALGORITHM_CHOICES = ("auto", ALGORITHM_RING, ALGORITHM_TREE,
                     ALGORITHM_HIERARCHICAL)

#: ``auto`` only considers the hierarchical all-reduce at this island count or
#: above.  This is a paper-fidelity gate, not a cost-model one: on the
#: two-island ``dual-3090`` testbed this selector's own model prefers
#: hierarchical (65.7 us against tree's 133.3 us at 64 KiB), but ``auto``
#: stays on the ring/tree choice the paper's figures use.  Pinned by
#: ``test_two_island_groups_exclude_hierarchical_from_auto`` and
#: ``benchmarks/test_fig8_bandwidth_latency.py``.
_HIERARCHICAL_MIN_ISLANDS = 4

#: Bottleneck-bytes multiplier of the serialized double binary tree all-reduce
#: relative to a single traversal (up + down phases, two trees, interior ranks
#: serving both children through one executor).
_TREE_ALLREDUCE_BW_FACTOR = 8.5

#: Critical-path hops of a binary/binomial tree as a multiple of its depth
#: (fan-in/fan-out serialization at interior ranks).
_TREE_HOP_FACTOR = 1.5

#: Extra serialized spine traversals of the double binary tree per cross-pod
#: edge on its deepest root path.  On a two-level fat-tree the heap-shaped
#: tree jumps pods on almost every upper level, and each such edge re-pays
#: the payload over the oversubscribed spine on the critical path — a term
#: the flat-topology constants above cannot see.  Calibrated against the
#: measured time-attribution of the 256/512-rank fat-tree ladder points,
#: like the other constants are calibrated on the dual-server testbed.
_TREE_SPINE_BW_FACTOR = 2.25


@dataclass(frozen=True)
class LinkParameters:
    """Aggregate link parameters of a device group's ring embedding."""

    alpha_sum_us: float
    alpha_max_us: float
    beta_min_gbps: float
    #: Sum over ring edges of the per-byte transfer time (us/byte).
    inv_beta_us_per_byte: float

    @property
    def bytes_per_us(self):
        return self.beta_min_gbps * 1e3


@dataclass(frozen=True)
class AlgorithmChoice:
    """Outcome of one selection: the winner plus every predicted cost.

    A cost is ``inf`` whenever its family is not a candidate: the tree for
    kinds without a tree variant or groups of two, the hierarchical
    all-reduce for groups with fewer than ``_HIERARCHICAL_MIN_ISLANDS``
    equal contiguous islands (single node, ragged islands, no topology info).
    """

    algorithm: str
    ring_cost_us: float
    tree_cost_us: float
    hierarchical_cost_us: float = float("inf")


class AlgorithmSelector:
    """Predicts per-algorithm alpha/beta costs and picks the cheapest schedule.

    A selector holds the interconnect (for per-link latency/bandwidth
    lookups) and the chunk size the tree formulas price; every backend
    shares ``DEFAULT_COST_MODEL``.  A plan consults one per membership
    (``resolve``); sweeps call ``choose`` directly.  Candidates are the flat
    ring, the double binary tree, and — for all-reduce on groups spanning
    >= ``_HIERARCHICAL_MIN_ISLANDS`` nodes — the two-level hierarchical
    schedule.
    """

    def __init__(self, interconnect=None, chunk_bytes=DEFAULT_CHUNK_BYTES):
        self.interconnect = interconnect
        self.chunk_bytes = chunk_bytes

    # -- link parameters -------------------------------------------------------

    def link_parameters(self, device_ids):
        """Ring-edge link aggregates for a device group.

        When no topology information is available, falls back to the PIX
        domain defaults (the flat single-server case).
        """
        size = len(device_ids or ())
        if self.interconnect is None or size < 2:
            alpha = LinkType.SHM_PIX.alpha_us
            beta = LinkType.SHM_PIX.beta_gbps
            edges = max(2, size)
            return LinkParameters(alpha * edges, alpha, beta,
                                  edges / (beta * 1e3))
        alphas = []
        inv_beta = 0.0
        betas = []
        ring = list(device_ids)
        for dev_a, dev_b in zip(ring, ring[1:] + ring[:1]):
            link = self.interconnect.link(dev_a, dev_b)
            alphas.append(link.alpha_us)
            betas.append(link.beta_gbps)
            inv_beta += 1.0 / (link.beta_gbps * 1e3)
        return LinkParameters(sum(alphas), max(alphas), min(betas), inv_beta)

    def hierarchical_structure(self, device_ids):
        """Two-level decomposition of a device group, or ``None``.

        Returns ``(island_size, islands, intra_params, inter_params)`` when the
        group's devices form >= 2 equal contiguous node-aligned islands and a
        real interconnect is available to distinguish the tiers.  The intra
        parameters aggregate the first island's ring edges; the inter
        parameters aggregate the ring over each island's lead device.
        """
        if self.interconnect is None or not device_ids:
            return None
        devices = list(device_ids)
        island_size = hierarchical_island_size(dev.node for dev in devices)
        if island_size is None or island_size < 2:
            return None
        islands = len(devices) // island_size
        intra_params = self.link_parameters(devices[:island_size])
        inter_params = self.link_parameters(devices[::island_size])
        return island_size, islands, intra_params, inter_params

    def _tree_inter_pod_cost_us(self, nbytes, device_ids):
        """Spine re-traversal cost of the tree all-reduce on multi-pod fabrics.

        Counts pod-crossing edges on the deepest root path of the heap-shaped
        tree (rank ``n-1`` up through ``(i-1)//2`` to the root) and charges
        :data:`_TREE_SPINE_BW_FACTOR` payload traversals of the spine per
        crossing.  Zero whenever the topology is single-level or the group
        sits inside one pod, so flat-topology predictions are unchanged.
        """
        if self.interconnect is None or not device_ids:
            return 0.0
        topology = getattr(self.interconnect, "topology", None)
        if topology is None or topology.nodes_per_pod <= 0:
            return 0.0
        devices = list(device_ids)
        crossings = 0
        index = len(devices) - 1
        while index > 0:
            parent = (index - 1) // 2
            if (topology.pod_of(devices[index].node)
                    != topology.pod_of(devices[parent].node)):
                crossings += 1
            index = parent
        if not crossings:
            return 0.0
        return (_TREE_SPINE_BW_FACTOR * crossings * nbytes
                / (topology.spine_beta_gbps * 1e3))

    # -- predicted costs -------------------------------------------------------

    def predicted_cost_breakdown(self, algorithm, kind, nbytes, group_size,
                                 device_ids=None, params=None):
        """Alpha/beta cost estimate of one algorithm, by attribution bucket.

        This is the cost model: every formula is a hop count plus the alpha
        and beta terms of those hops.  Returns ``{"alpha_us", "beta_us",
        "memory_us", "overhead_us"}`` — the cost-model side of the buckets
        the analysis layer measures.  The alpha bucket is the per-message
        link latency, beta the byte/bandwidth terms (including the tree's
        inter-pod spine traversals), overhead the fixed per-primitive control
        cost of every hop; the model has no explicit memory term, so
        ``memory_us`` is always zero.

        A family that does not apply — tree on a kind without a tree variant,
        hierarchical on a non-all-reduce or on a group without a two-level
        decomposition — is priced as the flat ring the sequence layer runs in
        its place.  ``params`` may carry precomputed :class:`LinkParameters`
        to avoid re-resolving every ring edge when costing several
        algorithms for the same group.
        """
        if algorithm not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {algorithm!r}")
        overhead = DEFAULT_COST_MODEL.primitive_overhead_us

        def buckets(hops, alpha_us, beta_us):
            return {"alpha_us": alpha_us, "beta_us": beta_us,
                    "memory_us": 0.0, "overhead_us": hops * overhead}

        if group_size <= 1:
            return buckets(0, 0.0, 0.0)
        n = group_size
        if algorithm == ALGORITHM_HIERARCHICAL and kind in HIERARCHICAL_KINDS:
            structure = self.hierarchical_structure(device_ids)
            if structure is not None:
                m, k, intra, inter = structure
                # 2(m-1) slab steps of nbytes/m inside the island
                # (reduce-scatter + all-gather), 2(k-1) slice steps of
                # nbytes/n across islands.
                intra_steps, inter_steps = 2 * (m - 1), 2 * (k - 1)
                return buckets(
                    intra_steps + inter_steps,
                    intra_steps * intra.alpha_max_us
                    + inter_steps * inter.alpha_max_us,
                    intra_steps * (nbytes / m) / intra.bytes_per_us
                    + inter_steps * (nbytes / n) / inter.bytes_per_us)
        if params is None:
            params = self.link_parameters(device_ids)
        depth = max(1, math.ceil(math.log2(n + 1)))
        loop_bytes = min(nbytes, self.chunk_bytes)
        nloops = max(1, math.ceil(nbytes / self.chunk_bytes))
        if algorithm == ALGORITHM_TREE and kind is CollectiveKind.ALL_REDUCE:
            hops = _TREE_HOP_FACTOR * depth
            return buckets(hops, hops * params.alpha_max_us,
                           _TREE_ALLREDUCE_BW_FACTOR * nbytes
                           / params.bytes_per_us
                           + self._tree_inter_pod_cost_us(nbytes, device_ids))
        if algorithm == ALGORITHM_TREE and kind in TREE_KINDS:
            if kind is CollectiveKind.BROADCAST:
                # The root forwards the full payload to each of its ~depth
                # children serially, so steady state pays ~depth per loop.
                hops = _TREE_HOP_FACTOR * depth + (nloops - 1) * depth
            else:
                # Reduce: fan-in is cheap (children send concurrently, the
                # parent only pays the local reduce), so the tree is near
                # depth hops.
                hops = 0.75 * depth + (nloops - 1) * 1.5
            return buckets(hops, hops * params.alpha_max_us,
                           hops * loop_bytes / params.bytes_per_us)
        if kind in (CollectiveKind.ALL_REDUCE, CollectiveKind.ALL_GATHER,
                    CollectiveKind.REDUCE_SCATTER):
            # Systolic ring: lock-steps at the slowest link's pace, 2(n-1)
            # for all-reduce, n-1 for either of its halves.
            steps = 2 * (n - 1) if kind is CollectiveKind.ALL_REDUCE else n - 1
            return buckets(steps, steps * params.alpha_max_us,
                           steps * (nbytes / n) / params.bytes_per_us)
        # Chain: pipeline fill along every edge, then one loop per slowest hop
        # in steady state.
        fraction = (n - 1) / n
        steady = nloops - 1
        return buckets((n - 1) + steady,
                       params.alpha_sum_us * fraction
                       + steady * params.alpha_max_us,
                       loop_bytes * params.inv_beta_us_per_byte * fraction
                       + steady * loop_bytes / params.bytes_per_us)

    def predicted_cost_us(self, algorithm, kind, nbytes, group_size, device_ids=None,
                          params=None):
        """Predicted cost of one algorithm: the sum of its breakdown."""
        return sum(self.predicted_cost_breakdown(
            algorithm, kind, nbytes, group_size, device_ids, params).values())

    # -- selection -------------------------------------------------------------

    def choose(self, kind, nbytes, group_size, device_ids=None):
        """Compare the candidate algorithms and return an :class:`AlgorithmChoice`.

        The tree only enters the comparison for kinds with a tree variant on
        groups of three or more, and the hierarchical all-reduce only when
        the group decomposes into >= ``_HIERARCHICAL_MIN_ISLANDS`` islands;
        a family outside the comparison is reported as ``inf``.  On a tie the
        earlier of ring, tree, hierarchical wins.
        """
        params = self.link_parameters(device_ids)
        candidates = [ALGORITHM_RING]
        if kind in TREE_KINDS and group_size > 2:
            candidates.append(ALGORITHM_TREE)
            structure = (self.hierarchical_structure(device_ids)
                         if kind in HIERARCHICAL_KINDS else None)
            if structure is not None and structure[1] >= _HIERARCHICAL_MIN_ISLANDS:
                candidates.append(ALGORITHM_HIERARCHICAL)
        costs = dict.fromkeys(ALGORITHMS, float("inf"))
        for algorithm in candidates:
            costs[algorithm] = self.predicted_cost_us(
                algorithm, kind, nbytes, group_size, device_ids, params=params)
        winner = min(candidates, key=costs.__getitem__)
        return AlgorithmChoice(winner, *costs.values())

    def resolve(self, algorithm, kind, nbytes, group_size, device_ids=None):
        """Resolve an algorithm knob value to a concrete algorithm name.

        Accepts ``"auto"`` (run the cost model), ``"ring"``, ``"tree"`` or
        ``"hierarchical"`` and returns a concrete name suitable for
        :func:`generate_primitive_sequence`; anything else raises
        :class:`ConfigurationError`.  Explicit names pass through unchanged —
        the sequence layer falls back to the flat ring when a family does not
        apply to the collective kind or the group has no island structure.
        """
        if algorithm not in ALGORITHM_CHOICES:
            raise ConfigurationError(
                f"unknown algorithm {algorithm!r}; expected one of {ALGORITHM_CHOICES}"
            )
        if algorithm == "auto":
            return self.choose(kind, nbytes, group_size, device_ids).algorithm
        return algorithm

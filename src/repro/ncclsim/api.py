"""NCCL-style backend and communicator objects."""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.collectives.cost import DEFAULT_COST_MODEL
from repro.collectives.plan import CollectivePlan
from repro.ncclsim.kernels import NcclCollectiveKernel, grid_size_for
from repro.ncclsim.ops import NcclCollectiveOp


class NcclCommunicator:
    """A communicator over a fixed set of global ranks.

    ``collective`` returns the op shared by every rank for one call id.  The
    ``repro.api`` adapter derives that id from a process group's call order,
    which is NCCL's match-by-call-order semantics.
    """

    def __init__(self, backend, ranks, name=None):
        self.backend = backend
        self.ranks = list(ranks)
        self.name = name or f"comm-{'-'.join(map(str, self.ranks))}"
        self._group_ranks = {}
        for group_rank, global_rank in enumerate(self.ranks):
            self._group_ranks.setdefault(global_rank, group_rank)
        self._ops_by_id = {}
        #: One plan per (spec, algorithm, chunk_bytes): the per-call ops of
        #: one logical collective share its membership, algorithm and cost
        #: prediction.
        self._plans = {}

    @property
    def size(self):
        return len(self.ranks)

    def group_rank(self, global_rank):
        group_rank = self._group_ranks.get(global_rank)
        if group_rank is None:
            raise ConfigurationError(
                f"rank {global_rank} is not a member of communicator {self.name}"
            )
        return group_rank

    def plan(self, spec, chunk_bytes=None, algorithm=None):
        """The :class:`CollectivePlan` of ``spec`` on this communicator."""
        algorithm = algorithm or self.backend.algorithm
        chunk_bytes = chunk_bytes or self.backend.chunk_bytes
        key = (spec, algorithm, chunk_bytes)
        plan = self._plans.get(key)
        if plan is None:
            cluster = self.backend.cluster
            # A per-collective spec hint overrides the communicator-wide knob.
            plan = self._plans[key] = CollectivePlan(
                spec, [cluster.device(rank) for rank in self.ranks],
                cluster.interconnect, spec.algorithm or algorithm, chunk_bytes,
                cost_model=self.backend.cost_model,
            )
        return plan

    def collective(self, coll_id, spec, chunk_bytes=None, name=None, algorithm=None):
        """Return the shared op for ``coll_id``, creating it on first use."""
        op = self._ops_by_id.get(coll_id)
        if op is None:
            op = NcclCollectiveOp(
                self.plan(spec, chunk_bytes=chunk_bytes, algorithm=algorithm),
                name=name or f"{self.name}:coll{coll_id}",
            )
            self._ops_by_id[coll_id] = op
        return op


class NcclBackend:
    """Factory of communicators and kernels over a simulated cluster."""

    def __init__(self, cluster, cost_model=None, chunk_bytes=None, algorithm="ring"):
        self.cluster = cluster
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.chunk_bytes = chunk_bytes or (128 << 10)
        self.algorithm = algorithm
        self.communicators = []

    def create_communicator(self, ranks=None, name=None):
        """Create a communicator over ``ranks`` (defaults to every GPU)."""
        if ranks is None:
            ranks = list(range(self.cluster.world_size))
        comm = NcclCommunicator(self, ranks, name=name)
        self.communicators.append(comm)
        return comm

    def make_kernel(self, op, global_rank, host=None, tenant=None):
        """Create the kernel for ``global_rank``'s part of ``op``.

        ``tenant`` tags the dedicated kernel with its owning job for the
        multi-tenant SM-contention accounting in :mod:`repro.gpusim`.
        """
        device = self.cluster.device(global_rank)
        group_rank = op.plan.rank_of_device.get(device)
        if group_rank is None:
            raise ConfigurationError(
                f"rank {global_rank} does not participate in {op.name}"
            )
        executor = op.executor_for(group_rank)
        kernel = NcclCollectiveKernel(
            name=f"{op.name}-r{group_rank}",
            device=device,
            executor=executor,
            op=op,
            rank=group_rank,
            grid_size=grid_size_for(op.spec.nbytes),
        )
        if tenant is not None:
            kernel.tenant = tenant
        op.register_kernel(group_rank, kernel)
        return kernel

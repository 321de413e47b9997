"""The NCCL-style dedicated-kernel baseline behind ``repro.api``.

Each invocation of a logical collective becomes one
:class:`~repro.ncclsim.NcclCollectiveOp` shared by every participating rank
(match-by-call-order, as in real NCCL); the ops of one logical collective
share one :class:`~repro.collectives.plan.CollectivePlan` per member set.
The adapter owns both caches and is the only code that drives an op: a
rank's Work submit op builds and launches the rank's dedicated kernel, whose
completion delivers the rank's completion and wakes its wait op.

A group's ``job`` tags its kernels with their owning job (multi-tenant SM
accounting) and gives the job its own launch stream.  A *training* loop over
this backend charges the CPU time of the paper's Megatron-style hand-written
order by default (:attr:`~repro.api.CollectiveBackend.training_orchestrator`,
costed by :func:`~repro.workloads.backends.coordination_cost`); raw
ProcessGroup programs — deadlock studies, microbenchmarks — never pay it.
"""

from __future__ import annotations

import statistics

from repro.collectives.plan import CollectivePlan
from repro.collectives.sequences import DEFAULT_CHUNK_BYTES
from repro.gpusim.host import LaunchKernel
from repro.ncclsim import NcclCollectiveKernel, NcclCollectiveOp, grid_size_for
from repro.obs import record_link_metrics
from repro.api.backend import CollectiveBackend, register_backend


class NcclCollectiveBackend(CollectiveBackend):
    """The dedicated-kernel baseline as a :class:`CollectiveBackend`."""

    name = "nccl"
    training_orchestrator = "megatron"

    def __init__(self, cluster, chunk_bytes=None, algorithm="ring",
                 config=None):
        # ``config`` (a DfcclConfig) is accepted for knob-uniformity with the
        # dfccl factory and ignored: the baseline has no daemon to configure.
        del config
        super().__init__(cluster)
        self.chunk_bytes = (DEFAULT_CHUNK_BYTES if chunk_bytes is None
                            else chunk_bytes)
        self.algorithm = algorithm
        #: One plan per (member ranks, spec): the per-call ops of one logical
        #: collective share its membership, algorithm and cost prediction.
        self._plans = {}
        self._ops = {}

    def _plan_for(self, ranks, spec):
        key = (tuple(ranks), spec)
        plan = self._plans.get(key)
        if plan is None:
            cluster = self.cluster
            # A per-collective spec hint overrides the backend-wide knob.
            plan = self._plans[key] = CollectivePlan(
                spec, [cluster.device(rank) for rank in ranks],
                cluster.interconnect, spec.algorithm or self.algorithm,
                self.chunk_bytes,
            )
        return plan

    def join(self, group, spec, key, index, rank):
        """``rank``'s part of invocation ``index``'s shared op."""
        ident = (group.group_id, spec, key, index)
        op = self._ops.get(ident)
        if op is None:
            suffix = "" if key is None else f":{key}"
            op = self._ops[ident] = NcclCollectiveOp(
                self._plan_for(group.ranks, spec), group.ranks,
                name=f"{group.name}:{spec.kind.value}{suffix}#{index}",
                job=group.job,
                index=index,
            )
        return op, op.plan.rank_of_device[self.cluster.device(rank)]

    def submit_op(self, work):
        """Host op launching the rank's dedicated kernel.

        The default stream is the group's job's own (``comm`` without a job).
        """
        stream = work.stream
        if stream is None:
            job = work.group.job
            stream = "comm" if job is None else f"comm-{job}"
        return LaunchKernel(lambda host: self._make_kernel(work), stream=stream)

    def _make_kernel(self, work):
        op, group_rank = work.run, work.group_rank
        kernel = NcclCollectiveKernel(
            name=f"{op.name}-r{group_rank}",
            device=op.devices[group_rank],
            executor=op.executor_for(group_rank),
            op=op,
            rank=group_rank,
            grid_size=grid_size_for(op.spec.nbytes),
        )
        # The owning job, for the multi-tenant SM-contention accounting in
        # repro.gpusim.
        kernel.tenant = work.group.job
        return kernel

    # -- reporting -----------------------------------------------------------------

    def diagnostics(self):
        """Plan count plus the metrics-registry snapshot."""
        diag = {"plans": len(self._plans)}
        obs = self.cluster.engine.obs
        if obs.enabled:
            record_link_metrics(
                obs.metrics, [op.communicator for op in self._ops.values()])
            diag["metrics"] = obs.metrics.snapshot()
        return diag

    def launch_overhead_us(self, rank):
        """The kernel launch before the run's residency."""
        return self.cluster.device(rank).LAUNCH_OVERHEAD_US

    def core_time_us(self, rank, runs):
        """Mean residency-to-completion time over each op's ranks."""
        return statistics.fmean(
            statistics.fmean(end - op.start_times[member]
                             for member, end in op.complete_times.items())
            for op in runs)


register_backend("nccl", NcclCollectiveBackend)

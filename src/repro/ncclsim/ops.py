"""Collective operation instances shared by all participating ranks."""

from __future__ import annotations

import itertools
import weakref

from repro.collectives.channels import Communicator
from repro.collectives.plan import CollectiveRun
from repro.collectives.primitives import PrimitiveExecutor
from repro.collectives.sequences import generate_primitive_sequence

_op_ids = itertools.count()

#: Ops by id, for wait-key attribution: fault analysis resolves an
#: ``("nccl-op-done", op_id, rank)`` wait key back to the device that would
#: have signalled it.
_ops_by_id = weakref.WeakValueDictionary()


def op_by_id(op_id):
    """Resolve an op id from an engine wait key, or ``None`` if gone."""
    return _ops_by_id.get(op_id)


class NcclCollectiveOp(CollectiveRun):
    """One collective call: a spec plus per-rank executors over shared channels.

    The object is shared by every participating rank; each rank creates its
    kernel from it, and a rank starts when its kernel becomes resident.
    Completion is tracked per rank so host threads can wait on their local
    part (matching ``cudaStreamSynchronize`` semantics); ``fully_complete``
    reports global completion.  The membership, algorithm, island size and
    cost prediction come from ``plan``, a :class:`CollectivePlan` shared by
    every call of the same logical collective; each op owns its channels.
    ``global_ranks`` are the members' cluster ranks and ``job`` the owning
    tenant, both for the spans.
    """

    backend = "nccl"

    def __init__(self, plan, global_ranks, name=None, job=None, index=0):
        op_id = next(_op_ids)
        engine = plan.devices[0].engine if plan.devices else None
        super().__init__(name or f"nccl-op{op_id}-{plan.spec.kind.value}",
                         plan.spec, tuple(global_ranks), job=job,
                         obs=engine.obs if engine is not None else None,
                         index=index)
        self.op_id = op_id
        self.plan = plan
        self.devices = plan.devices
        self.communicator = Communicator(self.devices, plan.interconnect)
        self._kernels = {}
        _ops_by_id[self.op_id] = self

    def executor_for(self, group_rank):
        """Build the primitive executor for one rank's part."""
        plan = self.plan
        sequence = generate_primitive_sequence(
            self.spec.kind,
            group_rank,
            self.group_size,
            self.spec.nbytes,
            chunk_bytes=plan.chunk_bytes,
            root=self.spec.root,
            algorithm=plan.algorithm,
            island_size=plan.island_size,
        )
        executor = PrimitiveExecutor(
            collective_id=self.op_id,
            group_rank=group_rank,
            communicator=self.communicator,
            primitives=sequence,
        )
        self.trace_executor(executor, group_rank, ("nccl", self.op_id))
        return executor

    # -- completion tracking --------------------------------------------------

    def completion_key(self, group_rank):
        return ("nccl-op-done", self.op_id, group_rank)

    def mark_complete(self, group_rank, time_us, executor=None):
        """Record the completion, deliver it, wake the rank's waiter."""
        super().mark_complete(group_rank, time_us, executor)
        self.deliver(group_rank)
        engine = self.devices[group_rank].engine
        if engine is not None:
            engine.signal(self.completion_key(group_rank), time_us)

    def register_kernel(self, group_rank, kernel):
        self._kernels[group_rank] = kernel

    def kernel(self, group_rank):
        return self._kernels.get(group_rank)

    def primitive_sequence(self, group_rank):
        """The schedule this rank's kernel ran (compiled now if it never
        launched)."""
        kernel = self.kernel(group_rank)
        if kernel is not None:
            return kernel.executor.primitives
        return self.executor_for(group_rank).primitives

    def __repr__(self):
        return f"<NcclCollectiveOp {self.name} size={self.group_size}>"

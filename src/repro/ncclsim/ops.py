"""Collective operation instances shared by all participating ranks."""

from __future__ import annotations

from repro.collectives.channels import Communicator
from repro.collectives.plan import CollectiveRun
from repro.collectives.primitives import PrimitiveExecutor
from repro.collectives.sequences import generate_primitive_sequence

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
    tenant, both for the spans.  The op's id comes from its devices' engine,
    which keeps the op for fault analysis to resolve an ``("nccl-op-done",
    op_id, rank)`` wait key.
    """

    backend = "nccl"

    def __init__(self, plan, global_ranks, name=None, job=None, index=0):
        engine = plan.devices[0].engine
        op_id = engine.next_id("nccl-op")
        super().__init__(name or f"nccl-op{op_id}-{plan.spec.kind.value}",
                         plan.spec, tuple(global_ranks), job=job,
                         obs=engine.obs, index=index)
        self.op_id = op_id
        self.plan = plan
        self.devices = plan.devices
        self.communicator = Communicator(self.devices, plan.interconnect)
        engine.keep("nccl-op", op_id, self)

    @property
    def trace_key(self):
        return ("nccl", self.op_id)

    def _compile(self, group_rank):
        plan, spec = self.plan, self.spec
        virtual_rank, size, root, island_size = plan.place(group_rank)
        sequence = generate_primitive_sequence(
            spec.kind, virtual_rank, size, spec.nbytes,
            chunk_bytes=plan.chunk_bytes, root=root, algorithm=plan.algorithm,
            island_size=island_size)
        return PrimitiveExecutor(virtual_rank, self.communicator, sequence)

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

    def __repr__(self):
        return f"<NcclCollectiveOp {self.name} size={self.group_size}>"

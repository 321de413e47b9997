"""Collective operation instances shared by all participating ranks."""

from __future__ import annotations

import itertools
import weakref

from repro.collectives.channels import Communicator
from repro.collectives.primitives import PrimitiveExecutor
from repro.collectives.sequences import generate_primitive_sequence
from repro.common.errors import InvalidStateError

_op_ids = itertools.count()

#: Ops by id, for wait-key attribution: fault analysis resolves an
#: ``("nccl-op-done", op_id, rank)`` wait key back to the device that would
#: have signalled it.
_ops_by_id = weakref.WeakValueDictionary()


def op_by_id(op_id):
    """Resolve an op id from an engine wait key, or ``None`` if gone."""
    return _ops_by_id.get(op_id)


class NcclCollectiveOp:
    """One collective call: a spec plus per-rank executors over shared channels.

    The object is shared by every participating rank; each rank creates its
    kernel from it.  Completion is tracked per rank so host threads can wait
    on their local part (matching ``cudaStreamSynchronize`` semantics);
    ``fully_complete`` reports global completion.  The membership, algorithm,
    island size and cost prediction come from ``plan``, a
    :class:`CollectivePlan` shared by every call of the same logical
    collective; each op owns its channels.
    """

    def __init__(self, plan, name=None):
        self.op_id = next(_op_ids)
        self.plan = plan
        self.spec = plan.spec
        self.name = name or f"nccl-op{self.op_id}-{self.spec.kind.value}"
        self.devices = plan.devices
        self.communicator = Communicator(self.devices, plan.interconnect)
        engine = self.devices[0].engine if self.devices else None
        obs = engine.obs if engine is not None else None
        self.obs = obs if (obs is not None and obs.enabled) else None
        self._complete_ranks = {}
        self._kernels = {}
        self._completion_callbacks = {}
        _ops_by_id[self.op_id] = self

    @property
    def algorithm(self):
        return self.plan.algorithm

    @property
    def predicted_cost_us(self):
        return self.plan.predicted_cost_us

    @property
    def predicted_breakdown(self):
        return self.plan.predicted_breakdown

    @property
    def group_size(self):
        return len(self.devices)

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
            cost_model=plan.cost_model,
        )
        if self.obs is not None and self.obs.analysis is not None:
            self.obs.analysis.attach(
                executor, backend="nccl", coll_name=self.name,
                invocation_key=("nccl", self.op_id), owner=self,
                group_rank=group_rank,
                track=self.devices[group_rank].name,
                algorithm=self.algorithm, kind=self.spec.kind.value,
                nbytes=self.spec.nbytes)
        return executor

    # -- completion tracking --------------------------------------------------

    def completion_key(self, group_rank):
        return ("nccl-op-done", self.op_id, group_rank)

    def add_completion_callback(self, group_rank, fn):
        """Run ``fn()`` when ``group_rank``'s part of the op completes.

        This is the dedicated-kernel analogue of DFCCL's per-invocation
        callbacks, letting the unified ``repro.api`` Work future offer the
        same completion-notification surface over both backends.
        """
        self._completion_callbacks.setdefault(group_rank, []).append(fn)

    def mark_rank_complete(self, group_rank, time_us, engine=None):
        if group_rank in self._complete_ranks:
            raise InvalidStateError(
                f"rank {group_rank} completed op {self.op_id} twice"
            )
        self._complete_ranks[group_rank] = time_us
        if self.obs is not None:
            kernel = self._kernels.get(group_rank)
            launch = getattr(kernel, "launch_time_us", None)
            executor = getattr(kernel, "executor", None)
            attrs = {"group_rank": group_rank,
                     "algorithm": self.algorithm,
                     "predicted_cost_us": self.predicted_cost_us}
            if executor is not None:
                attrs["primitives"] = executor.executed_primitives
                attrs["final_position"] = executor.position
            self.obs.tracer.record(
                self.name, "collective",
                launch if launch is not None else time_us, time_us,
                track=self.devices[group_rank].name,
                attrs=attrs)
            if self.fully_complete():
                launches = [k.launch_time_us for k in self._kernels.values()
                            if getattr(k, "launch_time_us", None) is not None]
                start = min(launches) if launches else time_us
                self.obs.record_collective(
                    "nccl", self.algorithm, self.spec.kind.value,
                    self.spec.nbytes, self.group_size,
                    max(self._complete_ranks.values()) - start,
                    predicted_us=self.predicted_cost_us,
                    predicted_breakdown=self.predicted_breakdown)
        for fn in self._completion_callbacks.get(group_rank, ()):
            fn()
        if engine is not None:
            engine.signal(self.completion_key(group_rank), time_us)

    def is_complete(self, group_rank):
        return group_rank in self._complete_ranks

    def fully_complete(self):
        return len(self._complete_ranks) == self.group_size

    def completion_time(self, group_rank=None):
        if group_rank is not None:
            return self._complete_ranks.get(group_rank)
        if not self.fully_complete():
            return None
        return max(self._complete_ranks.values())

    def register_kernel(self, group_rank, kernel):
        self._kernels[group_rank] = kernel

    def kernel(self, group_rank):
        return self._kernels.get(group_rank)

    def __repr__(self):
        return f"<NcclCollectiveOp {self.name} size={self.group_size}>"

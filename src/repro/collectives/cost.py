"""Cost model for the on-GPU part of primitive execution.

The inter-GPU transfer cost comes from the interconnect's alpha/beta link
model; this module adds the local costs: reading/writing device memory for the
``reduce`` and ``copy`` actions, the fixed per-primitive control overhead, and
the cost of a single busy-wait poll.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Tunable knobs of the primitive cost model (times in microseconds)."""

    #: Device-local memory bandwidth used by reduce/copy actions (GB/s).
    local_bandwidth_gbps: float = 350.0
    #: Fixed control overhead charged per executed primitive.
    primitive_overhead_us: float = 0.4
    #: Cost of one failed busy-wait poll on a connector.
    poll_cost_us: float = 0.004

    def local_copy_time_us(self, nbytes):
        """Time for the copy/reduce actions to touch ``nbytes`` of device memory."""
        if nbytes <= 0:
            return 0.0
        return nbytes / (self.local_bandwidth_gbps * 1e3)

    def primitive_time_us(self, nbytes, link=None, sends=False, touches_memory=True):
        """Busy time of a successfully executing primitive.

        ``link`` is the :class:`LinkSpec` used by the send action (``None``
        when the primitive does not send).  The send transfer and the local
        memory traffic overlap on real hardware, so we charge their maximum
        plus the fixed control overhead.
        """
        transfer = link.transfer_time_us(nbytes) if (sends and link is not None) else 0.0
        local = self.local_copy_time_us(nbytes) if touches_memory else 0.0
        return self.primitive_overhead_us + max(transfer, local)


DEFAULT_COST_MODEL = CostModel()

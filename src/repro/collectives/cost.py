"""The one cost formula of primitive execution, and its attribution split.

The inter-GPU transfer cost is the link's alpha/beta model
(:meth:`~repro.gpusim.interconnect.LinkSpec.transfer_time_us`); this module
adds the local costs: reading/writing device memory for the ``reduce`` and
``copy`` actions, the fixed per-primitive control overhead, and the cost of a
single busy-wait poll.  Every backend prices primitives with these values.
"""

from __future__ import annotations

#: Device-local memory bandwidth used by reduce/copy actions (GB/s).
LOCAL_BANDWIDTH_GBPS = 350.0
#: Fixed control overhead charged per executed primitive (us).
PRIMITIVE_OVERHEAD_US = 0.4
#: Cost of one failed busy-wait poll on a connector (us).
POLL_COST_US = 0.004


def _local_time_us(nbytes, touches_memory):
    """Time for the copy/reduce actions to touch ``nbytes`` of device memory."""
    if not touches_memory or nbytes <= 0:
        return 0.0
    return nbytes / (LOCAL_BANDWIDTH_GBPS * 1e3)


def primitive_time_us(nbytes, link=None, touches_memory=True):
    """Busy time of a successfully executing primitive.

    ``link`` is the :class:`LinkSpec` the primitive sends over, ``None`` when
    it does not send.  The send transfer and the local memory traffic overlap
    on real hardware, so we charge their maximum plus the fixed control
    overhead.
    """
    transfer = link.transfer_time_us(nbytes) if link is not None else 0.0
    return PRIMITIVE_OVERHEAD_US + max(transfer,
                                       _local_time_us(nbytes, touches_memory))


def split_busy(busy, nbytes, link=None, touches_memory=True):
    """Split a primitive's busy time into ``(overhead, alpha, beta, memory)``.

    The terms of :func:`primitive_time_us`: the fixed overhead, then whichever
    of the wire time (alpha, and beta as the rest of the transfer) and the
    local memory traffic dominated.  Allocates ``busy`` exactly: the
    leftovers land in ``memory``.
    """
    overhead = min(PRIMITIVE_OVERHEAD_US, busy)
    rest = busy - overhead
    alpha = beta = 0.0
    if rest > 0.0 and link is not None:
        wire = link.transfer_time_us(nbytes)
        if wire >= _local_time_us(nbytes, touches_memory):
            alpha = min(rest, link.alpha_us)
            beta = min(rest - alpha, wire - link.alpha_us)
    return overhead, alpha, beta, rest - alpha - beta

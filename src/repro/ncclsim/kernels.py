"""The dedicated NCCL collective kernel.

Each kernel executes one rank's primitive sequence of one collective.  When a
primitive cannot progress (its connector is not readable/writable) the kernel
blocks while *holding all of its blocks* — the hold-and-wait condition — and
there is no bound on how long it waits — the no-preemption condition.
"""

from __future__ import annotations

from repro.collectives.primitives import PRIMITIVES_PER_STEP, ExecOutcome
from repro.gpusim.device import KernelActor
from repro.gpusim.engine import StepResult


def grid_size_for(nbytes, max_blocks=4):
    """Blocks assigned to a collective kernel, growing with the payload.

    Mirrors NCCL's behaviour of using more channels (hence more blocks) for
    larger buffers, bounded by a small maximum.
    """
    blocks = 1 + nbytes // (4 << 20)
    return int(max(1, min(max_blocks, blocks)))


class NcclCollectiveKernel(KernelActor):
    """A resident kernel running one collective part to completion."""

    def __init__(self, name, device, executor, op, rank, grid_size=1, block_size=256):
        super().__init__(name, device, grid_size=grid_size, block_size=block_size)
        self.executor = executor
        self.op = op
        self.rank = rank
        self.blocked_polls = 0

    def on_launch(self, time_us):
        super().on_launch(time_us)
        # The baseline's collective starts at kernel residency.
        self.op.mark_started(self.rank, time_us)

    def waiting_on(self):
        """The peer device this kernel's current primitive is stuck on.

        Returns ``(device_id, direction)`` — the device whose send (or
        consume) the kernel busy-waits for — or ``None`` when the kernel can
        progress.  A dedicated kernel has no notion of peer failure: if the
        returned device is dead, the kernel waits forever while holding its
        blocks (the hold-and-wait + no-preemption conditions under faults).
        """
        outcome = self.executor.peek_blockers(self.now)
        primitive = outcome.primitive
        if primitive is None:
            return None
        communicator = self.executor.communicator
        if outcome.outcome.value == "wait_recv":
            return communicator.device_id(primitive.recv_peer), "recv"
        if outcome.outcome.value == "wait_send":
            return communicator.device_id(primitive.send_peer), "send"
        return None

    def run_step(self):
        _, outcome = self.executor.burst(self.clock, self.engine,
                                         PRIMITIVES_PER_STEP)
        kind = outcome.outcome
        if kind is ExecOutcome.SUCCESS:
            return StepResult.progress("primitive burst")
        if kind is ExecOutcome.ALL_DONE:
            self.op.mark_complete(self.rank, self.now, self.executor)
            return self.complete(f"collective {self.op.op_id} done on rank {self.rank}")
        # WAIT_RECV / WAIT_SEND: hold resources and wait without bound.
        self.blocked_polls += 1
        return StepResult.blocked(
            [outcome.wait_key],
            f"{outcome.primitive.name} waiting ({kind.value})",
        )

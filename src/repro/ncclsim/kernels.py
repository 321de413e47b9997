"""The dedicated NCCL collective kernel.

Each kernel executes one rank's primitive sequence of one collective.  When a
primitive cannot progress (its connector is not readable/writable) the kernel
blocks while *holding all of its blocks* — the hold-and-wait condition — and
there is no bound on how long it waits — the no-preemption condition.
"""

from __future__ import annotations

from repro.collectives.primitives import (
    PRIMITIVE_NAMES,
    PRIMITIVES_PER_STEP,
    ExecOutcome,
)
from repro.gpusim.device import KernelActor
from repro.gpusim.engine import StepResult


#: Most blocks a collective kernel occupies.
MAX_COLLECTIVE_BLOCKS = 4

#: The result of every step that ends in a full burst (read only).
_BURST = StepResult.progress("primitive burst")

_SUCCESS = ExecOutcome.SUCCESS

#: The detail of a blocked step, by the waiting primitive's action value and
#: the outcome's value (plain keys: hashing an enum member runs Python code).
_BLOCKED_DETAILS = {
    (action._value_, kind._value_): f"{name} waiting ({kind.value})"
    for action, name in PRIMITIVE_NAMES.items()
    for kind in (ExecOutcome.WAIT_RECV, ExecOutcome.WAIT_SEND)
}


def grid_size_for(nbytes):
    """Blocks assigned to a collective kernel, growing with the payload.

    Mirrors NCCL's behaviour of using more channels (hence more blocks) for
    larger buffers, bounded by :data:`MAX_COLLECTIVE_BLOCKS`.
    """
    blocks = 1 + nbytes // (4 << 20)
    return int(max(1, min(MAX_COLLECTIVE_BLOCKS, blocks)))


class NcclCollectiveKernel(KernelActor):
    """A resident kernel running one collective part to completion."""

    def __init__(self, name, device, executor, op, rank, grid_size=1, block_size=256):
        super().__init__(name, device, grid_size=grid_size, block_size=block_size)
        self.executor = executor
        self.op = op
        self.rank = rank

    def on_launch(self, time_us):
        super().on_launch(time_us)
        # The baseline's collective starts at kernel residency.
        self.op.mark_started(self.rank, time_us)

    def run_step(self):
        _, outcome = self.executor.burst(self.clock, self.engine,
                                         PRIMITIVES_PER_STEP)
        kind = outcome.outcome
        if kind is _SUCCESS:
            return _BURST
        if kind is ExecOutcome.ALL_DONE:
            self.op.mark_complete(self.rank, self.now, self.executor)
            return self.complete(f"collective {self.op.op_id} done on rank {self.rank}")
        # WAIT_RECV / WAIT_SEND: hold resources and wait without bound.
        return StepResult.blocked(
            (outcome.wait_key,),
            _BLOCKED_DETAILS[outcome.action._value_, kind._value_],
        )

"""The CPU-side poller thread.

The poller monitors the completion queue, executes the callbacks bound to
completed collectives, and implements DFCCL's event-driven starting: whenever
collectives are outstanding but the daemon kernel is not running (because it
quit voluntarily), the poller relaunches it.
"""

from __future__ import annotations

from repro.core.config import CALLBACK_COST_US, POLLER_INTERVAL_US
from repro.gpusim.engine import Actor, StepResult


class Poller(Actor):
    """Per-rank completion poller (a daemon/service actor)."""

    daemon = True

    def __init__(self, rank_ctx):
        super().__init__(f"dfccl-poller-r{rank_ctx.global_rank}")
        self.ctx = rank_ctx

    def _drain_cq(self):
        drained = 0
        while len(self.ctx.cq) > 0:
            cqe = self.ctx.cq.pop()
            self.clock.advance(CALLBACK_COST_US)
            self.ctx.deliver_completion(cqe, self.clock)
            drained += 1
        return drained

    def step(self):
        if self.ctx.device.failed:
            # The rank process died with its GPU; nothing left to poll.
            return StepResult.done("device failed")

        drained = self._drain_cq()

        if self.ctx.destroyed and not self.ctx.inflight:
            return StepResult.done("rank context destroyed")

        if self.ctx.inflight:
            if not self.ctx.daemon_alive:
                # Event-driven starting: relaunch the daemon kernel when CQEs
                # are fewer than SQEs and it is not currently running.
                self.ctx.maybe_relaunch_daemon(self.now)
                return StepResult.sleep(
                    self.now + POLLER_INTERVAL_US,
                    f"poller awaiting relaunch ({drained} callbacks run)",
                )
            # The daemon signals ``cqe_key`` for every CQE it writes and when
            # it exits, so blocking here delivers callbacks with microsecond
            # latency instead of polling-interval latency.
            return StepResult.blocked(
                [self.ctx.cqe_key, self.ctx.destroyed_key],
                f"poller waiting for CQEs ({drained} callbacks run)",
            )

        return StepResult.blocked(
            [self.ctx.submitted_key, self.ctx.cqe_key, self.ctx.destroyed_key],
            "poller idle",
        )
